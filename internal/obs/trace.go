package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
)

// EventKind classifies one coherence-protocol trace event.
type EventKind uint8

const (
	// EvReqIssue marks a cache sending a remote request; Arg is the
	// protocol message kind (protocol.MsgKind numbering).
	EvReqIssue EventKind = iota
	// EvDirLookup marks the home directory controller starting to serve
	// a remote request for Block; Arg is 0 for a read, 1 for a write.
	EvDirLookup
	// EvInvalFanout marks an invalidation burst for Block; Arg is the
	// number of clusters invalidated.
	EvInvalFanout
	// EvOverflow marks an imprecise directory action: an invalidation
	// burst sent from an overflowed (coarse/broadcast/superset) entry;
	// Arg is the number of clusters the imprecise burst invalidated.
	EvOverflow
	// EvDirEvict marks a sparse-directory replacement recalling Block;
	// Arg is the number of invalidations the recall sent.
	EvDirEvict
	// EvRetry marks a NAK-style retry (a woken lock waiter re-contending);
	// Block is the lock address.
	EvRetry

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"req.issue", "dir.lookup", "inval.fanout", "dir.overflow", "dir.evict", "lock.retry",
}

func (k EventKind) String() string {
	if k >= numEventKinds {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindNames[k]
}

// unknownNameMessage renders the registry-style unknown-name message shared
// by the package's typed parse errors (matching core.UnknownSchemeError and
// apps.UnknownAppError).
func unknownNameMessage(what, name string, valid []string) string {
	return fmt.Sprintf("unknown %s %q (want one of %s)", what, name, strings.Join(valid, ", "))
}

// UnknownEventKindError reports an event-kind name that ParseEventKind does
// not recognize. Valid lists the accepted names so flag and file errors can
// enumerate the choices.
type UnknownEventKindError struct {
	Name  string
	Valid []string
}

func (e *UnknownEventKindError) Error() string {
	return unknownNameMessage("event kind", e.Name, e.Valid)
}

// EventKindNames returns every event-kind name, in kind order.
func EventKindNames() []string {
	return append([]string(nil), eventKindNames[:]...)
}

// ParseEventKind resolves an event-kind name as rendered by String.
// Unknown names return *UnknownEventKindError.
func ParseEventKind(name string) (EventKind, error) {
	for i, n := range eventKindNames {
		if n == name {
			return EventKind(i), nil
		}
	}
	return 0, &UnknownEventKindError{Name: name, Valid: eventKindNames[:]}
}

// Event is one structured trace record.
type Event struct {
	T     uint64 // simulation cycle
	Node  int32  // cluster where the event happened
	Kind  EventKind
	Block int64 // block number (or lock address for EvRetry)
	Arg   int64 // kind-specific payload, see the EventKind docs
}

// Sink consumes batches of trace events. Write receives events in
// emission order; the batch slice is reused by the caller and must not be
// retained. Sinks shared by concurrent tracers must serialize Write
// internally.
type Sink interface {
	Write(batch []Event) error
	Close() error
}

// Discard is the disabled sink: it drops every batch.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Write([]Event) error { return nil }
func (discardSink) Close() error        { return nil }

// MemSink collects every event in memory, for tests.
type MemSink struct {
	Events []Event
}

// Write implements Sink.
func (s *MemSink) Write(batch []Event) error {
	s.Events = append(s.Events, batch...)
	return nil
}

// Close implements Sink.
func (s *MemSink) Close() error { return nil }

// JSONLSink encodes each event as one JSON object per line:
//
//	{"run":"LU/Dir32","t":412,"node":3,"ev":"inval.fanout","block":97,"n":5}
//
// The run field is set per tracer via Sub, so one file can interleave the
// traces of a whole experiment sweep. Write is serialized internally, so
// concurrently running machines may share one sink; each batch is written
// contiguously.
type JSONLSink struct {
	shared *jsonlShared
	run    string
}

// jsonlShared is the writer state all Sub views of one sink funnel into.
type jsonlShared struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying file, if owned
	err error     // sticky first error
}

// NewJSONLSink wraps w. If w is an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	sh := &jsonlShared{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		sh.c = c
	}
	return &JSONLSink{shared: sh}
}

// Sub returns a view of the sink that tags every event with the given run
// label. All views share the parent's writer and lock.
func (s *JSONLSink) Sub(run string) *JSONLSink {
	return &JSONLSink{shared: s.shared, run: run}
}

// Write implements Sink.
func (s *JSONLSink) Write(batch []Event) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err != nil {
		return sh.err
	}
	for _, ev := range batch {
		if s.run != "" {
			_, sh.err = fmt.Fprintf(sh.w, `{"run":%q,"t":%d,"node":%d,"ev":%q,"block":%d,"n":%d}`+"\n",
				s.run, ev.T, ev.Node, ev.Kind, ev.Block, ev.Arg)
		} else {
			_, sh.err = fmt.Fprintf(sh.w, `{"t":%d,"node":%d,"ev":%q,"block":%d,"n":%d}`+"\n",
				ev.T, ev.Node, ev.Kind, ev.Block, ev.Arg)
		}
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// WriteLine appends one pre-rendered line to the sink's output under its
// shared lock, so foreign record streams (e.g. check-violation records)
// can interleave with event and span lines without tearing. The line must
// not contain a newline; one is appended.
func (s *JSONLSink) WriteLine(line string) error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err != nil {
		return sh.err
	}
	if _, err := sh.w.WriteString(line); err != nil {
		sh.err = err
		return err
	}
	if err := sh.w.WriteByte('\n'); err != nil {
		sh.err = err
	}
	return sh.err
}

// Flush pushes buffered output through to the underlying writer without
// closing it, so a reader tailing the file (the campaign service's
// /stream endpoint) sees every completed line. Flushing any Sub view
// flushes the shared writer.
func (s *JSONLSink) Flush() error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.w.Flush(); err != nil && sh.err == nil {
		sh.err = err
	}
	return sh.err
}

// Close flushes buffered output and closes the underlying writer if the
// sink owns it. Closing any Sub view closes the shared writer.
func (s *JSONLSink) Close() error {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.w.Flush(); err != nil && sh.err == nil {
		sh.err = err
	}
	if sh.c != nil {
		if err := sh.c.Close(); err != nil && sh.err == nil {
			sh.err = err
		}
	}
	return sh.err
}

// Tracer buffers events in a fixed ring and hands full batches to its
// sink. A nil *Tracer is the disabled state: call sites guard emission
// with a nil test, so tracing that is off costs one branch.
type Tracer struct {
	ring []Event
	n    int
	sink Sink
	err  error // sticky first sink error
}

// DefaultRingCap is the default tracer ring capacity.
const DefaultRingCap = 4096

// NewTracer returns a tracer writing to sink. ringCap <= 0 selects
// DefaultRingCap.
func NewTracer(sink Sink, ringCap int) *Tracer {
	if sink == nil {
		sink = Discard
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Tracer{ring: make([]Event, ringCap), sink: sink}
}

// Emit records one event. It never allocates; when the ring fills the
// pending batch is handed to the sink and the ring restarts. The copy is
// field by field: callers build ev on the stack with mixed-width stores,
// and a whole-struct vector copy would load across them, stalling store
// forwarding on every event.
func (t *Tracer) Emit(ev Event) {
	e := &t.ring[t.n]
	e.T, e.Node, e.Kind, e.Block, e.Arg = ev.T, ev.Node, ev.Kind, ev.Block, ev.Arg
	t.n++
	if t.n == len(t.ring) {
		t.flush()
	}
}

func (t *Tracer) flush() {
	if t.n == 0 {
		return
	}
	if err := t.sink.Write(t.ring[:t.n]); err != nil && t.err == nil {
		t.err = err
	}
	t.n = 0
}

// Flush drains the pending partial batch to the sink and returns the
// first error the sink ever reported.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flush()
	return t.err
}

// Err returns the first sink error, without flushing.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}
