package obs

import "fmt"

// TxClass classifies one remote memory transaction for latency accounting.
type TxClass uint8

const (
	// TxRead is a remote read miss (ReadReq round trip).
	TxRead TxClass = iota
	// TxWrite is a remote write miss (WriteReq round trip).
	TxWrite
	// TxUpgrade is a remote ownership upgrade (UpgradeReq round trip).
	TxUpgrade
	// TxLock is one remote lock-acquisition round: issue until the grant
	// arrives, or until a wake message tells the waiter to retry (the
	// retry is a new transaction; lock.retry events link the rounds).
	TxLock
	// TxEvict is a sparse-directory replacement recall: the home
	// invalidates the victim block's cached copies and gates requests
	// until every acknowledgement returns.
	TxEvict

	numTxClasses
)

// NumTxClasses is the number of transaction classes; classes are the
// contiguous range [0, NumTxClasses), so callers can build per-class tables.
const NumTxClasses = int(numTxClasses)

var txClassNames = [numTxClasses]string{"read", "write", "upgrade", "lock", "evict"}

func (c TxClass) String() string {
	if c >= numTxClasses {
		return fmt.Sprintf("TxClass(%d)", int(c))
	}
	return txClassNames[c]
}

// UnknownTxClassError reports a transaction-class name that ParseTxClass
// does not recognize. Valid lists the accepted names.
type UnknownTxClassError struct {
	Name  string
	Valid []string
}

func (e *UnknownTxClassError) Error() string {
	return unknownNameMessage("transaction class", e.Name, e.Valid)
}

// ParseTxClass resolves a class name as rendered by String. Unknown names
// return *UnknownTxClassError.
func ParseTxClass(name string) (TxClass, error) {
	for i, n := range txClassNames {
		if n == name {
			return TxClass(i), nil
		}
	}
	return 0, &UnknownTxClassError{Name: name, Valid: txClassNames[:]}
}

// Phase names one segment of a transaction's lifetime.
type Phase uint8

const (
	// PhTotal marks a transaction's root span, covering issue to
	// completion.
	PhTotal Phase = iota
	// PhReqTravel is the request's network transit to the home cluster.
	PhReqTravel
	// PhDirWait is time spent at the home directory: controller queueing,
	// per-block gate waits, and the lookup/allocate service itself. For
	// locks it also covers time queued waiting for the holder to release.
	PhDirWait
	// PhFanout is the forwarded leg on the critical path: the home's
	// forward to a dirty owner plus the owner's bus work, up to the
	// moment the owner sends its reply.
	PhFanout
	// PhAckGather covers invalidation dispatch until the last
	// acknowledgement arrives. For read/write/upgrade transactions the
	// acks drain asynchronously under release consistency, so this phase
	// overlaps the reply; for evictions it is the critical path.
	PhAckGather
	// PhReplyTravel is the reply's network transit back to the requester.
	PhReplyTravel
	// PhRecovery marks one delivery-recovery episode under the fault
	// model: a message of the transaction timed out and was re-sent, and
	// the span covers from the lost attempt's injection to the retry.
	// Recovery spans are always asynchronous — retries for different
	// messages of one transaction overlap its other phases freely — and
	// exist only when network fault injection is enabled.
	PhRecovery

	numPhases
)

// NumPhases is the number of span phases; phases are the contiguous range
// [0, NumPhases).
const NumPhases = int(numPhases)

var phaseNames = [numPhases]string{
	"total", "req.travel", "dir.wait", "fanout", "ack.gather", "reply.travel",
	"net.recovery",
}

func (p Phase) String() string {
	if p >= numPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// UnknownPhaseError reports a phase name that ParsePhase does not
// recognize. Valid lists the accepted names.
type UnknownPhaseError struct {
	Name  string
	Valid []string
}

func (e *UnknownPhaseError) Error() string {
	return unknownNameMessage("span phase", e.Name, e.Valid)
}

// ParsePhase resolves a phase name as rendered by String. Unknown names
// return *UnknownPhaseError.
func ParsePhase(name string) (Phase, error) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), nil
		}
	}
	return 0, &UnknownPhaseError{Name: name, Valid: phaseNames[:]}
}

// Async reports whether the phase overlaps the parent span instead of
// tiling it: acknowledgement gathering runs concurrently with the reply for
// every class except evictions, where the recall is not complete (and the
// block stays gated) until the last ack arrives, and recovery episodes
// overlap whatever phase the lost message belonged to. Analyzers use this
// to decide which child spans must partition the root exactly.
func (p Phase) Async(c TxClass) bool {
	return p == PhRecovery || (p == PhAckGather && c != TxEvict)
}

// Span is one timed segment of a transaction. The root span (Parent == 0,
// Phase == PhTotal) covers the whole transaction; child spans carry the
// root's ID in Parent and the transaction's ID in Tx. The synchronous
// children of a root partition [Start, End] exactly, in emission order;
// asynchronous children (see Phase.Async) may extend past the root's End.
type Span struct {
	Tx     uint64  // transaction ID (equals the root span's ID)
	ID     uint64  // unique span ID within one recorder's lifetime
	Parent uint64  // parent span ID; 0 marks a root
	Class  TxClass // transaction class, repeated on every child
	Phase  Phase   // PhTotal for roots
	Node   int32   // requesting cluster (home cluster for evictions)
	Block  int64   // block number (lock address for TxLock)
	Start  uint64  // simulation cycle the segment began
	End    uint64  // simulation cycle the segment ended
	N      int64   // fan-out count for fanout/ack spans and roots; else 0
}

// Duration returns End - Start.
func (s Span) Duration() uint64 { return s.End - s.Start }

// SpanSink consumes batches of finished spans. WriteSpans receives spans in
// emission order; the batch slice is reused by the caller and must not be
// retained. Sinks shared by concurrent recorders must serialize WriteSpans
// internally.
type SpanSink interface {
	WriteSpans(batch []Span) error
	Close() error
}

// DiscardSpans is the disabled span sink: it drops every batch.
var DiscardSpans SpanSink = discardSpanSink{}

type discardSpanSink struct{}

func (discardSpanSink) WriteSpans([]Span) error { return nil }
func (discardSpanSink) Close() error            { return nil }

// MemSpanSink collects every span in memory, for tests.
type MemSpanSink struct {
	Spans []Span
}

// WriteSpans implements SpanSink.
func (s *MemSpanSink) WriteSpans(batch []Span) error {
	s.Spans = append(s.Spans, batch...)
	return nil
}

// Close implements SpanSink.
func (s *MemSpanSink) Close() error { return nil }

// WriteSpans implements SpanSink on the JSONL sink, one object per line:
//
//	{"run":"LU/Dir32","tx":7,"span":9,"parent":7,"class":"write","phase":"fanout","node":3,"block":97,"start":412,"end":440,"n":5}
//
// Span lines carry a "span" key and event lines an "ev" key, so one file
// (and one shared writer) can interleave both streams; see Sub for run
// labeling. WriteSpans is serialized against concurrent Write/WriteSpans
// calls on any view of the same sink.
func (s *JSONLSink) WriteSpans(batch []Span) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err != nil {
		return sh.err
	}
	for _, sp := range batch {
		if s.run != "" {
			_, sh.err = fmt.Fprintf(sh.w, `{"run":%q,"tx":%d,"span":%d,"parent":%d,"class":%q,"phase":%q,"node":%d,"block":%d,"start":%d,"end":%d,"n":%d}`+"\n",
				s.run, sp.Tx, sp.ID, sp.Parent, sp.Class, sp.Phase, sp.Node, sp.Block, sp.Start, sp.End, sp.N)
		} else {
			_, sh.err = fmt.Fprintf(sh.w, `{"tx":%d,"span":%d,"parent":%d,"class":%q,"phase":%q,"node":%d,"block":%d,"start":%d,"end":%d,"n":%d}`+"\n",
				sp.Tx, sp.ID, sp.Parent, sp.Class, sp.Phase, sp.Node, sp.Block, sp.Start, sp.End, sp.N)
		}
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// SpanRecorder buffers finished spans in a fixed ring and hands full
// batches to its sink, mirroring Tracer. A nil *SpanRecorder is the
// disabled state: call sites guard emission with a nil test, so span
// tracing that is off costs one branch.
type SpanRecorder struct {
	ring []Span
	n    int
	sink SpanSink
	err  error // sticky first sink error
}

// NewSpanRecorder returns a recorder writing to sink. ringCap <= 0 selects
// DefaultRingCap.
func NewSpanRecorder(sink SpanSink, ringCap int) *SpanRecorder {
	if sink == nil {
		sink = DiscardSpans
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &SpanRecorder{ring: make([]Span, ringCap), sink: sink}
}

// Emit records one finished span. It never allocates; when the ring fills
// the pending batch is handed to the sink and the ring restarts.
func (r *SpanRecorder) Emit(s Span) {
	// Field by field, for the store-forwarding reason Tracer.Emit gives.
	e := &r.ring[r.n]
	e.Tx, e.ID, e.Parent, e.Class, e.Phase = s.Tx, s.ID, s.Parent, s.Class, s.Phase
	e.Node, e.Block, e.Start, e.End, e.N = s.Node, s.Block, s.Start, s.End, s.N
	r.n++
	if r.n == len(r.ring) {
		r.flush()
	}
}

func (r *SpanRecorder) flush() {
	if r.n == 0 {
		return
	}
	if err := r.sink.WriteSpans(r.ring[:r.n]); err != nil && r.err == nil {
		r.err = err
	}
	r.n = 0
}

// Flush drains the pending partial batch to the sink and returns the first
// error the sink ever reported.
func (r *SpanRecorder) Flush() error {
	if r == nil {
		return nil
	}
	r.flush()
	return r.err
}

// Err returns the first sink error, without flushing.
func (r *SpanRecorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}
