package machine

import (
	"fmt"

	"dircoh/internal/cache"
	"dircoh/internal/check"
	"dircoh/internal/core"
	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/rng"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// Machine is one simulated DASH-style multiprocessor.
type Machine struct {
	cfg      Config
	t        Timing
	net      *mesh.Mesh // machine-wide latency model, fault stream and port table
	scheme   core.Scheme
	clusters []*clusterNode
	procs    []*proc

	// shard is the event core: clusters partitioned across its timing
	// wheels (see sharded.go). merged is set once the per-cluster
	// registries and histograms have been folded into the machine-level
	// ones at quiescence.
	shard  *shardedCore
	merged bool

	// Observability. Protocol metrics live in per-cluster registries
	// (clusterRes) merged into reg at quiescence; reg itself carries the
	// machine-wide recorders (checker, delivery recovery). The tracer is
	// nil when tracing is off.
	reg *obs.Registry
	tr  *obs.Tracer

	// Transaction tracing (nil when Config.Spans is nil). The per-class
	// latency histograms and the queue-depth sampling histograms live on
	// each cluster's clusterRes, and each processor carries its own open
	// lock-round transaction (proc.lockTx).
	spans *obs.SpanRecorder

	invalHist stats.Histogram // invalidations per invalidation event (Figs 3-6)
	replHist  stats.Histogram // invalidations per sparse replacement
	readLat   stats.LatHist   // read completion latency
	writeLat  stats.LatHist   // write completion latency (to ownership)

	// chk is the runtime invariant checker (nil when Config.Check is off;
	// the nil test is the whole disabled-path cost). faultFired latches the
	// single-shot fault injection (Config.Fault). copyBuf is the scratch
	// slice blockCopies reuses to build predicate views.
	chk        *check.Recorder
	faultFired bool
	copyBuf    []check.Copy

	// Delivery recovery, active only when the mesh fault model is on
	// (faultsOn): every message becomes a sequence-numbered netMsg envelope
	// in inflight until delivered, with retry and duplicate-suppression
	// counters; aborted carries the watchdog's or deadline's verdict and
	// stops the run loop. See net.go.
	faultsOn      bool
	msgSeq        uint64
	inflight      map[uint64]*netMsg
	retryCnt      *obs.Counter // "net.retry.count"
	retryGiveup   *obs.Counter // "net.retry.giveup"
	dupSuppressed *obs.Counter // "net.dup.suppressed"
	aborted       *StuckError

	// recallsPending counts replacement recalls queued or in flight per
	// global block (checker bookkeeping only, nil when Check is off). A
	// block whose directory entry is reclaimed, re-allocated by a request
	// replayed off the gate, and reclaimed again can owe two recalls at
	// once; the first to complete must not be blamed for copies the second
	// snapshotted and will invalidate.
	recallsPending map[int64]int

	// debugBlock, when >= 0, records a timeline of events touching that
	// block (test diagnostics only).
	debugBlock int64
	debugLog   []string
}

// clusterRes bundles the facilities a cluster's protocol events record
// into and act through. Every cluster has its own, so each cluster is
// single-writer and shards never touch each other's state; the per-cluster
// registries and histograms merge into the machine-level ones at
// quiescence (see finalize).
type clusterRes struct {
	reg      *obs.Registry
	net      *mesh.Mesh
	scheme   core.Scheme
	locks    *protocol.LockTable
	barriers *protocol.BarrierTable

	kindCtr     [protocol.NumMsgKinds]*obs.Counter
	lockRetries *obs.Counter
	mergedReads *obs.Counter
	extraInval  *obs.Counter
	invalFan    *obs.Histogram
	replFan     *obs.Histogram

	// Transaction latency histograms ("tx.lat.<class>"; entries nil when
	// Config.Spans is nil) and queue-depth sampling histograms (nil when
	// Config.SampleEvery is 0).
	txLat     [obs.NumTxClasses]*obs.Histogram
	dirDepth  *obs.Histogram // "dir.queue.depth"
	dirLive   *obs.Histogram // "dir.entries.live"
	portDepth *obs.Histogram // "mesh.port.backlog"

	invalHist *stats.Histogram
	replHist  *stats.Histogram
	readLat   *stats.LatHist
	writeLat  *stats.LatHist
}

// clusterNode is one processing node: processors, bus, memory+directory.
type clusterNode struct {
	id      int
	res     *clusterRes
	shard   int         // owning shard
	eng     *sim.Engine // the owning shard's wheel
	pool    *evPool     // the owning shard's continuation records
	evSeq   uint64      // per-cluster event sequence, the wheel ordering key
	spanSeq uint64      // per-cluster span-ID sequence (see spanID)
	dir     sparse.Directory
	gate    *protocol.Gate
	rac     *protocol.RAC
	busFree sim.Time
	dirFree sim.Time
	busBusy sim.Time // cumulative bus occupancy (utilization accounting)
	dirBusy sim.Time // cumulative directory occupancy
	procs   []*proc
	// pendingReads merges outstanding read misses to the same block from
	// different processors of the cluster (the RAC's request-merging
	// function in DASH): followers wait for the leader's reply instead
	// of sending their own request.
	pendingReads map[int64][]*proc
	// poisonedReads marks pending reads whose block was invalidated
	// while the reply was in flight: the data is delivered to the
	// processor but must not be cached (the invalidation logically
	// follows the read) — the RAC's conflict-resolution function.
	poisonedReads map[int64]bool
	// pendingWrite marks blocks with an outstanding remote ownership
	// request from this cluster; writeWaiters holds local accesses that
	// missed meanwhile and retry when the write completes (MSHR
	// merging, as the DASH RAC does).
	pendingWrite map[int64]bool
	writeWaiters map[int64][]mshrWaiter
	// treeBarrier tracks this cluster's node of the combining tree:
	// arrival counts and locally parked processors, per barrier address.
	treeArrived map[int64]int
	treeWaiting map[int64][]*proc
	// wbExpected counts writebacks known to be in flight to this home:
	// when a request arrives from the very cluster the directory records
	// as dirty owner, the owner must have evicted its copy, so a
	// writeback is on the way. The next writeback for the block is then
	// stale with respect to the re-granted ownership and must be
	// dropped, not applied.
	wbExpected map[int64]int
}

// mshrWaiter is a local access parked behind an outstanding write.
type mshrWaiter struct {
	p     *proc
	write bool
}

// proc is one simulated processor.
type proc struct {
	id            int
	cl            *clusterNode
	h             *cache.Hierarchy
	stream        *tango.Stream
	stepFn        func() // pre-bound m.stepProc(p): the hot path schedules it without allocating a closure per event
	pendingAcks   int
	fenced        bool      // a synchronization reference waits for pendingAcks to drain
	fenceRef      tango.Ref // the waiting reference
	drainToFinish bool
	done          bool
	finish        sim.Time
	opPending     bool // a data reference is in flight (latency accounting)
	opWrite       bool
	opStart       sim.Time
	lastProgress  sim.Time // last cycle this processor advanced (liveness watchdog)
	lockTx        *txState // open lock-round transaction (span tracing only)
}

// New builds a machine from cfg. Configurations that fail Validate are
// reported as errors, never panics.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.Cache == (cache.Config{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	cfg.Cache.Block = cfg.Block
	clusters := cfg.Clusters()
	if cfg.Mesh.Base == 0 && cfg.Mesh.PerHop == 0 {
		// Keep a caller-specified PortTime and fault model while
		// defaulting latencies.
		port, faults := cfg.Mesh.PortTime, cfg.Mesh.Faults
		cfg.Mesh = mesh.DefaultConfig(clusters)
		cfg.Mesh.PortTime = port
		cfg.Mesh.Faults = faults
	}
	cfg.Mesh.Nodes = clusters

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Mesh.Metrics = reg
	if cfg.Mesh.Faults.Enabled() && cfg.Mesh.Faults.Seed == 0 {
		// Derive the fault stream from the machine seed (stream -1 keeps it
		// clear of the per-cluster directory streams) so one -seed flag
		// still pins the whole run.
		cfg.Mesh.Faults.Seed = rng.Mix(cfg.Seed, -1)
	}
	if cfg.Check && cfg.Spans == nil {
		// The checker cross-checks span tiling, so the transaction
		// machinery must run even when the caller wants no span output.
		cfg.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
	}

	scheme, err := cfg.Scheme(clusters)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		cfg:        cfg,
		t:          cfg.Timing,
		net:        mesh.New(cfg.Mesh),
		scheme:     scheme,
		reg:        reg,
		tr:         cfg.Trace,
		spans:      cfg.Spans,
		debugBlock: -1,
	}
	if cfg.Check {
		m.chk = check.NewRecorder(reg, cfg.CheckSink)
		m.recallsPending = make(map[int64]int)
	}
	if m.net.FaultsEnabled() {
		m.faultsOn = true
		m.inflight = make(map[uint64]*netMsg)
		m.retryCnt = reg.Counter("net.retry.count")
		m.retryGiveup = reg.Counter("net.retry.giveup")
		m.dupSuppressed = reg.Counter("net.dup.suppressed")
		if m.cfg.Retry.MaxRetries == 0 {
			m.cfg.Retry.MaxRetries = DefaultMaxRetries
		}
		if m.cfg.StuckBudget == 0 {
			m.cfg.StuckBudget = DefaultStuckBudget
		}
	}
	// The checker, delivery recovery, ejection-port contention and
	// protocol mutations touch machine-wide state from inside one
	// cluster's events, so they run at width 1, where a single goroutine
	// owns the whole machine. Results are identical at every width, so
	// capping it changes nothing but the worker count.
	width := max(cfg.Shards, 1)
	if cfg.Check || m.faultsOn || cfg.Mesh.PortTime > 0 || cfg.Fault != FaultNone {
		width = 1
	}
	m.shard = newShardedCore(m, min(width, clusters))

	for c := 0; c < clusters; c++ {
		res := newClusterRes(&cfg, clusters, m.net)
		var dir sparse.Directory
		if cfg.Overflow != nil {
			dir = sparse.NewOverflow(sparse.OverflowConfig{
				Ptrs:        cfg.Overflow.Ptrs,
				Nodes:       clusters,
				WideEntries: cfg.Overflow.WideEntries,
				Assoc:       cfg.Overflow.Assoc,
				Policy:      cfg.Overflow.Policy,
				Seed:        rng.Mix(cfg.Seed, int64(c)),
				Metrics:     res.reg,
			})
		} else if cfg.Sparse.Entries > 0 {
			assoc := cfg.Sparse.Assoc
			if assoc == 0 {
				assoc = 4 // the paper's main sparse setting
			}
			dir = sparse.New(sparse.Config{
				Scheme:  res.scheme,
				Entries: cfg.Sparse.Entries,
				Assoc:   assoc,
				Policy:  cfg.Sparse.Policy,
				Seed:    rng.Mix(cfg.Seed, int64(c)),
				Metrics: res.reg,
			})
		} else {
			dir = sparse.NewFullMap(res.scheme, res.reg)
		}
		gate := protocol.NewGate()
		gate.Waits = res.reg.Counter("gate.waits")
		rac := protocol.NewRAC()
		rac.Pend = res.reg.Gauge("rac.pending")
		if m.chk != nil {
			cid := c
			gate.Anomaly = func(op string, block int64) { m.protoAnomaly(cid, op, block) }
			rac.Anomaly = func(op string, block int64) { m.protoAnomaly(cid, op, block) }
		}
		cl := &clusterNode{
			id:            c,
			res:           res,
			dir:           dir,
			gate:          gate,
			rac:           rac,
			pendingReads:  make(map[int64][]*proc),
			poisonedReads: make(map[int64]bool),
			pendingWrite:  make(map[int64]bool),
			writeWaiters:  make(map[int64][]mshrWaiter),
			treeArrived:   make(map[int64]int),
			treeWaiting:   make(map[int64][]*proc),
			wbExpected:    make(map[int64]int),
		}
		cl.shard = c % m.shard.n
		cl.eng = m.shard.wheels[cl.shard]
		cl.pool = &m.shard.pools[cl.shard]
		m.clusters = append(m.clusters, cl)
	}
	for p := 0; p < cfg.Procs; p++ {
		cl := m.clusters[p/cfg.ProcsPerCluster]
		pr := &proc{id: p, cl: cl, h: cache.NewHierarchy(cfg.Cache)}
		pr.stepFn = func() { m.stepProc(pr) }
		cl.procs = append(cl.procs, pr)
		m.procs = append(m.procs, pr)
	}
	return m, nil
}

// debugf records a diagnostic event for the debugged block.
func (m *Machine) debugf(b int64, format string, args ...any) {
	if b != m.debugBlock {
		return
	}
	m.debugLog = append(m.debugLog, fmt.Sprintf("t=%d: ", m.simNow())+fmt.Sprintf(format, args...))
}

// Scheme returns the machine's directory entry scheme.
func (m *Machine) Scheme() core.Scheme { return m.scheme }

// Shards reports the worker count the machine actually runs with: the
// requested width, capped by the cluster count and, when the checker,
// faults, port contention or a protocol mutation is on, at 1.
func (m *Machine) Shards() int { return m.shard.n }

// nextKey returns the cluster's next event ordering key: the scheduling
// cluster in the high bits, its per-cluster sequence below. Keys are unique
// per cluster and ordered first by cluster id on ties, so the total
// (time, key) event order depends only on per-cluster scheduling order —
// never on which shard ran first — which is what makes sharded results
// independent of the shard count.
func (c *clusterNode) nextKey() uint64 {
	c.evSeq++
	return uint64(c.id)<<40 | c.evSeq
}

// now returns the current simulation time in cluster c's context: the
// owning shard's wheel time. Every protocol event runs in the context of
// exactly one cluster, so passing that cluster is always possible.
func (m *Machine) now(c *clusterNode) sim.Time { return c.eng.Now() }

// at schedules fn at absolute time t in cluster c's context.
func (m *Machine) at(c *clusterNode, t sim.Time, fn sim.Event) {
	c.eng.AtKey(t, c.nextKey(), fn)
}

// after schedules fn delay cycles from now in cluster c's context.
func (m *Machine) after(c *clusterNode, delay sim.Time, fn sim.Event) {
	m.at(c, m.now(c)+delay, fn)
}

// block converts a byte address to a block number.
func (m *Machine) block(addr int64) int64 { return addr / int64(m.cfg.Block) }

// home returns the cluster holding block's memory and directory entry.
// Memory is distributed round-robin by block, as in the paper's simulator.
func (m *Machine) home(block int64) int {
	return int(uint64(block) % uint64(len(m.clusters)))
}

// dirKey converts a global block number to the home-local block index the
// directory is addressed with. Blocks homed at cluster c are exactly those
// congruent to c modulo the cluster count, so the low bits carry no
// information; a sparse directory indexed by the raw block number would
// alias every local block into one set.
func (m *Machine) dirKey(block int64) int64 {
	return block / int64(len(m.clusters))
}

// keyBlock is the inverse of dirKey for blocks homed at cluster c.
func (m *Machine) keyBlock(key int64, c int) int64 {
	return key*int64(len(m.clusters)) + int64(c)
}

// dirEntry returns the directory entry for a global block number (a
// convenience for tests and validators). It peeks: recency state and the
// dir.* counters are untouched, so validators never perturb the run.
func (m *Machine) dirEntry(block int64) core.Entry {
	h := m.clusters[m.home(block)]
	return h.dir.Peek(m.dirKey(block))
}

// busOp reserves cluster c's bus for dur cycles starting no earlier than
// now, FCFS, and returns the completion time.
func (m *Machine) busOp(c *clusterNode, dur sim.Time) sim.Time {
	start := m.now(c)
	if c.busFree > start {
		start = c.busFree
	}
	c.busFree = start + dur
	c.busBusy += dur
	return c.busFree
}

// dirOp reserves cluster c's directory controller, FCFS.
func (m *Machine) dirOp(c *clusterNode, dur sim.Time) sim.Time {
	start := m.now(c)
	if c.dirFree > start {
		start = c.dirFree
	}
	c.dirFree = start + dur
	c.dirBusy += dur
	return c.dirFree
}

// occupyDir extends cluster c's directory busy window by dur without
// waiting for it (used to model the finite invalidation send rate).
func (m *Machine) occupyDir(c *clusterNode, dur sim.Time) {
	if now := m.now(c); c.dirFree < now {
		c.dirFree = now
	}
	c.dirFree += dur
	c.dirBusy += dur
}

// send counts one protocol message and schedules its arrival.
func (m *Machine) send(kind protocol.MsgKind, from, to int, arrive func()) {
	m.sendTx(kind, from, to, nil, arrive)
}

// sendTx is send with transaction context: under the fault model the
// message travels as a recoverable envelope (see net.go) whose retries are
// annotated onto tx as net.recovery spans. With faults off there is no
// envelope, no extra state and no RNG draw.
func (m *Machine) sendTx(kind protocol.MsgKind, from, to int, tx *txState, arrive func()) {
	if from == to {
		panic(fmt.Sprintf("machine: message %v from cluster %d to itself", kind, from))
	}
	fc := m.clusters[from]
	fc.res.kindCtr[kind].Inc()
	if m.faultsOn {
		m.sendReliable(kind, fc, m.clusters[to], tx, arrive)
		return
	}
	m.xat(fc, m.clusters[to], fc.res.net.SendAt(m.now(fc), from, to), arrive)
}

// trace emits one structured event when tracing is on. The nil test is the
// whole disabled-path cost. node is always the executing cluster. At width
// 1 the one wheel fires in the canonical (time, key) order, so the event
// goes straight to the tracer; wider runs buffer it in the cluster's
// shard, stamped with the firing position, and replay it in canonical
// order at quiescence (see shardobs.go).
func (m *Machine) trace(kind obs.EventKind, node int, block, arg int64) {
	if m.tr == nil {
		return
	}
	c := m.clusters[node]
	if m.shard.n == 1 {
		m.tr.Emit(obs.Event{T: uint64(c.eng.Now()), Node: int32(node), Kind: kind, Block: block, Arg: arg})
		return
	}
	m.shard.obsBuf[c.shard].pushEv(keyedEvent{
		key: c.eng.FiringKey(),
		ev:  obs.Event{T: uint64(c.eng.Now()), Node: int32(node), Kind: kind, Block: block, Arg: arg},
	})
}

// MetricsSnapshot freezes the machine's metrics — every named counter,
// gauge and histogram the run recorded. Before quiescence (a live sample,
// or an aborted run) it merges the per-cluster registries on the fly;
// callers must hold the run quiescent.
func (m *Machine) MetricsSnapshot() obs.Snapshot {
	if m.merged {
		return m.reg.Snapshot()
	}
	snaps := make([]obs.Snapshot, 0, len(m.clusters)+1)
	snaps = append(snaps, m.reg.Snapshot())
	for _, c := range m.clusters {
		snaps = append(snaps, c.res.reg.Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}

// FlushTrace drains the tracer's pending events to its sink and reports
// the first sink error. It is safe to call with tracing disabled.
func (m *Machine) FlushTrace() error { return m.tr.Flush() }

// FlushSpans drains the span recorder's pending spans to its sink and
// reports the first sink error. It is safe to call with spans disabled.
func (m *Machine) FlushSpans() error { return m.spans.Flush() }

// complete schedules p's next reference at time at.
func (m *Machine) complete(p *proc, at sim.Time) {
	m.at(p.cl, at, p.stepFn)
}

// stepProc issues p's next reference, or retires p.
func (m *Machine) stepProc(p *proc) {
	now := m.now(p.cl)
	p.lastProgress = now
	if p.opPending {
		p.opPending = false
		if p.opWrite {
			p.cl.res.writeLat.Add(m.cycleDelta(now, p.opStart, "write latency"))
		} else {
			p.cl.res.readLat.Add(m.cycleDelta(now, p.opStart, "read latency"))
		}
	}
	ref, ok := p.stream.Next()
	if !ok {
		if p.pendingAcks > 0 {
			p.drainToFinish = true
			return
		}
		m.finishProc(p)
		return
	}
	switch ref.Op {
	case tango.Read:
		m.access(p, false, ref.Addr)
	case tango.Write:
		m.access(p, true, ref.Addr)
	case tango.Lock, tango.Unlock, tango.Barrier:
		m.fence(p, ref)
	default:
		panic(fmt.Sprintf("machine: unknown op %v", ref.Op))
	}
}

// syncOp runs synchronization reference ref once p's fence has drained.
func (m *Machine) syncOp(p *proc, ref tango.Ref) {
	switch ref.Op {
	case tango.Lock:
		m.lockAcquire(p, ref.Addr, false)
	case tango.Unlock:
		m.lockRelease(p, ref.Addr)
	default:
		m.barrierArrive(p, ref.Addr)
	}
}

func (m *Machine) finishProc(p *proc) {
	p.done = true
	p.finish = m.now(p.cl)
}

// fence runs synchronization reference ref once p's outstanding
// invalidation acknowledgements have drained — DASH's release-consistency
// fence at synchronization points.
func (m *Machine) fence(p *proc, ref tango.Ref) {
	if p.pendingAcks == 0 {
		if m.chk != nil {
			m.chk.Drained(p.id, uint64(m.now(p.cl)))
		}
		m.syncOp(p, ref)
		return
	}
	if p.fenced {
		if m.chk != nil {
			m.chk.Violationf(check.RuleProtocol, int32(p.cl.id), -1, uint64(m.now(p.cl)),
				"double fence: proc %d reached a second synchronization point with one already pending", p.id)
		}
		panic(fmt.Sprintf("machine: double fence at proc %d", p.id))
	}
	p.fenced, p.fenceRef = true, ref
}

// ackArrived records one invalidation acknowledgement for p's oldest write.
func (m *Machine) ackArrived(p *proc) {
	now := m.now(p.cl)
	p.lastProgress = now
	p.pendingAcks--
	if m.chk != nil {
		m.chk.AckArrived(p.id, uint64(now))
	}
	if p.pendingAcks < 0 {
		panic(fmt.Sprintf("machine: negative pending acks at proc %d", p.id))
	}
	if p.pendingAcks == 0 {
		if m.chk != nil {
			m.chk.Drained(p.id, uint64(now))
		}
		if p.fenced {
			p.fenced = false
			m.syncOp(p, p.fenceRef)
		}
		if p.drainToFinish {
			p.drainToFinish = false
			m.finishProc(p)
		}
	}
}

// Run executes workload w to completion and returns the measurements.
func (m *Machine) Run(w *tango.Workload) (*Result, error) {
	if w.Procs() != m.cfg.Procs {
		return nil, fmt.Errorf("machine: workload has %d streams, machine has %d procs", w.Procs(), m.cfg.Procs)
	}
	for i, p := range m.procs {
		p.stream = tango.NewStream(w.Streams[i])
		m.at(p.cl, 0, p.stepFn)
	}
	if m.cfg.SampleEvery > 0 {
		for _, c := range m.clusters {
			c := c
			c.eng.AtKey(m.cfg.SampleEvery, uint64(c.id)<<40, func() { m.sampleCluster(c) })
		}
	}
	if m.cfg.Live != nil {
		defer m.publishLive(true)
	}
	if err := m.shard.run(); err != nil {
		return nil, err
	}
	m.finalize()
	for _, p := range m.procs {
		if !p.done {
			if m.faultsOn || m.cfg.StuckBudget > 0 {
				// The event queue drained with work remaining: a message was
				// abandoned after its retry budget, so the dependent
				// transaction can never complete. Report it like a watchdog
				// catch, with the full dump.
				m.abort(fmt.Sprintf("event queue drained with proc %d unfinished (%d refs remaining, %d acks pending) — undeliverable message",
					p.id, p.stream.Remaining(), p.pendingAcks))
				return nil, m.aborted
			}
			return nil, fmt.Errorf("machine: deadlock — proc %d stuck with %d refs remaining, %d acks pending",
				p.id, p.stream.Remaining(), p.pendingAcks)
		}
	}
	m.finishChecks()
	return m.result(), nil
}
