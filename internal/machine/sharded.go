package machine

// The machine's event core: a conservative-lookahead parallel discrete
// event simulator, which at width 1 (the default) runs the whole machine
// on one timing wheel.
//
// Clusters are partitioned round-robin across N worker shards, each owning
// a timing wheel (sim.Engine). All shards advance in lockstep windows
// [W, W+look), where look is the minimum cross-cluster mesh latency: an
// event at time t can only affect another cluster at t+latency >= t+look,
// so everything inside the current window is causally independent across
// shards and can run in parallel. Cross-shard messages are buffered in
// per-(src,dst) outboxes during a window and exchanged at the barrier; the
// receiver inserts them keyed by (arrival time, origin cluster, origin
// sequence), and since the wheel fires equal-time events in ascending key
// order, the total event order — and therefore every simulation result —
// is byte-identical at every shard count.
//
// Observability shards with the simulation: every cluster records metrics
// into its private registry (merged at quiescence), and at widths above 1
// trace events and spans are buffered per shard with (time, key) stamps and
// replayed in the canonical global order — see shardobs.go — so metrics,
// traces, spans, and queue-depth samples are byte-identical at every shard
// width. At width 1 the single wheel already fires in that order, so
// records go straight to their sinks.
//
// Features that touch state across clusters outside this protocol (fault
// injection, the invariant checker, mesh port contention, deliberate
// protocol faults) run at width 1, where one goroutine owns every cluster;
// New caps the width for them.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dircoh/internal/mesh"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
	"dircoh/internal/stats"
)

// never is the "no pending event" sentinel for window arithmetic.
const never = ^sim.Time(0)

// wallEvery is how many windows worker 0 runs between wall-clock reads.
const wallEvery = 64

// newClusterRes builds one cluster's private facility bundle: its own
// registry, mesh accounting fork of net (sharing net's ejection-port
// table), scheme instance (some schemes carry per-instance RNG state), lock
// and barrier tables, and figure histograms. Every cluster registers the
// same names, so the per-cluster snapshots merge into one metric
// namespace.
func newClusterRes(cfg *Config, clusters int, net *mesh.Mesh) *clusterRes {
	reg := obs.NewRegistry()
	scheme, err := cfg.Scheme(clusters)
	if err != nil {
		// Config.Validate already ran the factory once; factories are
		// deterministic, so failing here is a program bug, not input.
		panic(err)
	}
	res := &clusterRes{
		reg:         reg,
		net:         net.Fork(reg),
		scheme:      scheme,
		lockRetries: reg.Counter("lock.retries"),
		mergedReads: reg.Counter("rac.merged.reads"),
		extraInval:  reg.Counter("dir.inval.extraneous"),
		invalFan:    reg.Histogram("dir.inval.fanout", nil),
		replFan:     reg.Histogram("dir.repl.fanout", nil),
		invalHist:   &stats.Histogram{},
		replHist:    &stats.Histogram{},
		readLat:     &stats.LatHist{},
		writeLat:    &stats.LatHist{},
	}
	res.locks = protocol.NewLockTable(res.scheme)
	res.barriers = protocol.NewBarrierTable(cfg.Procs)
	for k := range res.kindCtr {
		res.kindCtr[k] = reg.Counter(protocol.MsgKind(k).MetricName())
	}
	res.initObsHists(cfg)
	return res
}

// initObsHists registers the transaction-latency and queue-depth
// histograms in the bundle's registry when the corresponding feature is
// on. The conditionals keep the metric namespace free of zero-valued
// series for disabled features.
func (r *clusterRes) initObsHists(cfg *Config) {
	if cfg.Spans != nil {
		for c := range r.txLat {
			r.txLat[c] = r.reg.Histogram(txLatNames[c], obs.LatBuckets)
		}
	}
	if cfg.SampleEvery > 0 {
		r.dirDepth = r.reg.Histogram("dir.queue.depth", obs.QueueBuckets)
		r.dirLive = r.reg.Histogram("dir.entries.live", obs.QueueBuckets)
		r.portDepth = r.reg.Histogram("mesh.port.backlog", obs.QueueBuckets)
	}
}

// relayEv is one cross-shard event in transit through an outbox.
type relayEv struct {
	at  sim.Time
	key uint64
	fn  sim.Event
}

// shardedCore drives the parallel run.
type shardedCore struct {
	m      *Machine
	n      int
	look   sim.Time
	wheels []*sim.Engine
	pools  []evPool // per-shard continuation records (cont.go)

	// out[src][dst] buffers events shard src scheduled into shard dst's
	// clusters during the current window; dst drains its column at the
	// barrier. Only src appends, only dst drains, and the two phases are
	// barrier-separated.
	out [][][]relayEv

	// nextT[s] is shard s's earliest pending event after the exchange;
	// every worker computes the identical next window from it.
	nextT []sim.Time

	// obsBuf[s] is shard s's private trace-event and span buffer cell,
	// stamped with firing positions and merged into the canonical order at
	// quiescence (shardobs.go); unused at width 1. Only shard s appends;
	// the merge runs after the workers join. Cells are cache-line padded: appends rewrite the
	// slice headers constantly, and adjacent headers would false-share.
	obsBuf []shardObsCell

	barrier  spinBarrier
	deadline time.Duration
	start    time.Time
	wallHit  bool // worker 0 samples the wall clock; read after the barrier
	budget   sim.Time
	lastPub  time.Time // worker 0's live-publish throttle (Config.Live)

	// Initial watchdog verdict, computed before the workers start (every
	// worker seeds its local copy from these, then rescans between the
	// barriers where no shard is mutating processor state).
	wdLimit sim.Time
	wdStuck int
}

func newShardedCore(m *Machine, n int) *shardedCore {
	look, ok := m.net.MinLatency()
	if !ok {
		look = 1 // no cross-cluster traffic exists; any positive window works
	}
	if look == 0 {
		panic("machine: sharded core needs a positive minimum mesh latency")
	}
	s := &shardedCore{
		m:        m,
		n:        n,
		look:     look,
		wheels:   make([]*sim.Engine, n),
		pools:    make([]evPool, n),
		out:      make([][][]relayEv, n),
		nextT:    make([]sim.Time, n),
		obsBuf:   make([]shardObsCell, n),
		deadline: m.cfg.Deadline,
		budget:   m.cfg.StuckBudget,
	}
	for i := range s.wheels {
		s.wheels[i] = sim.NewEngine(0)
		s.out[i] = make([][]relayEv, n)
	}
	s.barrier.parties = int32(n)
	return s
}

// xat schedules fn at absolute time t in cluster to's context, from
// cluster from's context, with from's next deterministic ordering key —
// the one legal way to cross clusters (protocol messages go through it,
// as does home-side bookkeeping timed to a reply's arrival). Same-shard
// targets insert directly; cross-shard targets go through the outbox and
// must lie beyond the conservative lookahead, which callers guarantee by
// deriving t from a mesh latency.
func (m *Machine) xat(from, to *clusterNode, t sim.Time, fn sim.Event) {
	key := from.nextKey()
	if to.shard == from.shard {
		from.eng.AtKey(t, key, fn)
		return
	}
	s := m.shard
	if t < from.eng.Now()+s.look {
		panic(fmt.Sprintf("machine: cross-shard event at t=%d inside the lookahead window (now=%d, look=%d)",
			t, from.eng.Now(), s.look))
	}
	s.out[from.shard][to.shard] = append(s.out[from.shard][to.shard], relayEv{at: t, key: key, fn: fn})
}

// run executes the window loop to completion (or abort) and reports the
// abort error, if any.
func (s *shardedCore) run() error {
	for i, w := range s.wheels {
		if t, ok := w.NextTime(); ok {
			s.nextT[i] = t
		} else {
			s.nextT[i] = never
		}
	}
	if s.deadline > 0 {
		s.start = time.Now()
	}
	if s.m.cfg.Live != nil {
		s.lastPub = time.Now()
	}
	s.wdLimit, s.wdStuck = s.watchdogScan()
	if s.n == 1 {
		s.worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(s.n)
		for i := 0; i < s.n; i++ {
			go func(id int) {
				defer wg.Done()
				s.worker(id)
			}(i)
		}
		wg.Wait()
	}
	if s.m.aborted != nil {
		return s.m.aborted
	}
	return nil
}

// worker is one shard's loop. Each iteration: every worker independently
// computes the identical next window from the shared nextT array (and the
// identical watchdog verdict, so all workers stop together without any
// shared decision variable), runs its wheel through the window, then
// exchanges outboxes and republishes its next event time between two
// barriers.
//
// Memory discipline: processor and cluster state is only written while a
// shard runs its wheel (between the loop top and the first barrier), and
// only read machine-wide between the two barriers or at the loop top
// using values captured there. The watchdog verdict therefore cannot be
// computed at the loop top (another shard may already be firing events);
// each worker rescans between the barriers and carries the verdict into
// the next iteration in locals.
func (s *shardedCore) worker(id int) {
	m := s.m
	limit, stuck := s.wdLimit, s.wdStuck
	sampleWall := id == 0 && (s.deadline > 0 || m.cfg.Live != nil)
	var windows uint64
	for {
		window := never
		for _, t := range s.nextT {
			if t < window {
				window = t
			}
		}
		if window == never {
			return
		}
		if s.wallHit {
			if id == 0 {
				m.abort(fmt.Sprintf("wall-clock deadline %s exceeded at t=%d", s.deadline, window))
			}
			return
		}
		if s.budget > 0 && window > limit {
			// Deterministic liveness watchdog: the next window opens
			// more than a budget past some unfinished processor's last
			// progress.
			if id == 0 {
				m.abort(fmt.Sprintf("liveness watchdog: proc %d made no progress for over %d cycles (budget exceeded at t=%d)",
					stuck, s.budget, window))
			}
			return
		}
		s.wheels[id].RunUntil(window + s.look - 1)
		s.barrier.wait()
		w := s.wheels[id]
		for src := range s.out {
			box := s.out[src][id]
			if len(box) == 0 {
				continue
			}
			for _, r := range box {
				w.AtKey(r.at, r.key, r.fn)
			}
			s.out[src][id] = box[:0]
		}
		if t, ok := w.NextTime(); ok {
			s.nextT[id] = t
		} else {
			s.nextT[id] = never
		}
		if s.budget > 0 {
			limit, stuck = s.watchdogScan()
		}
		// Worker 0 reads the wall clock for the deadline and the live
		// throttle every wallEvery windows, so the clock read never shows
		// up in profiles of short windows; neither can change results.
		if windows++; sampleWall && windows%wallEvery == 0 {
			if s.deadline > 0 && time.Since(s.start) > s.deadline {
				s.wallHit = true
			}
			if m.cfg.Live != nil && time.Since(s.lastPub) >= livePublishEvery {
				// Between the barriers every shard is quiescent, so
				// worker 0 can read all per-cluster registries for a
				// consistent live snapshot.
				m.publishLive(false)
				s.lastPub = time.Now()
			}
		}
		s.barrier.wait()
	}
}

// watchdogScan computes the watchdog verdict over every processor: the
// earliest time an unfinished processor runs out of its no-progress
// budget, and which processor that is. A window opening strictly past the
// limit aborts the run. Only called where no shard is mutating processor
// state (before the workers start, or between the exchange barriers).
func (s *shardedCore) watchdogScan() (limit sim.Time, stuck int) {
	limit, stuck = never, -1
	for _, p := range s.m.procs {
		if p.done {
			continue
		}
		if l := p.lastProgress + s.budget; l < limit {
			limit = l
			stuck = p.id
		}
	}
	return limit, stuck
}

// finalize folds the per-cluster registries and histograms into the
// machine-level views Result and MetricsSnapshot read, after replaying the
// per-shard trace/span buffers of a wider-than-1 run in canonical order.
// The registries merge into m.reg itself — which is Config.Metrics when
// the caller supplied an external registry. Counter sums and bucket-wise
// histogram merges are order-independent, so the result is deterministic.
func (m *Machine) finalize() {
	if m.shard.n > 1 {
		m.flushShardObs()
	}
	for _, c := range m.clusters {
		m.reg.Merge(c.res.reg)
		m.invalHist.Merge(c.res.invalHist)
		m.replHist.Merge(c.res.replHist)
		m.readLat.Merge(c.res.readLat)
		m.writeLat.Merge(c.res.writeLat)
	}
	m.merged = true
}

// simNow returns the machine's current (or final) simulation time: the
// furthest shard wheel. At width 1 it is the one wheel's clock, which is
// how the width-1-only features (checker, fault recovery) read the time
// outside any cluster context.
func (m *Machine) simNow() sim.Time {
	var t sim.Time
	for _, w := range m.shard.wheels {
		t = max(t, w.Now())
	}
	return t
}

// simFired returns total events executed across shards.
func (m *Machine) simFired() uint64 {
	var n uint64
	for _, w := range m.shard.wheels {
		n += w.Fired()
	}
	return n
}

// simPending returns total scheduled-but-unfired events across shards
// (outbox events in transit included).
func (m *Machine) simPending() int {
	n := 0
	for _, w := range m.shard.wheels {
		n += w.Pending()
	}
	for _, row := range m.shard.out {
		for _, box := range row {
			n += len(box)
		}
	}
	return n
}

// spinBarrier is a sense-reversing spin barrier. Windows are short (often
// a handful of events), so parking on a sync primitive per phase would
// dominate the run; spinning with periodic yields keeps the barrier in the
// tens-of-nanoseconds range. All operations go through sync/atomic, so the
// race detector understands the ordering.
type spinBarrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

func (b *spinBarrier) wait() {
	if b.parties == 1 {
		return
	}
	s := b.sense.Load()
	if b.count.Add(1) == b.parties {
		b.count.Store(0)
		b.sense.Store(s + 1)
		return
	}
	for spins := 0; b.sense.Load() == s; spins++ {
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}
