package machine

// Shard-safe observability for the event core at widths above 1.
//
// A width-1 run emits traces and spans in the order its one wheel fires
// events, which is the canonical (time, key) order. Wider runs cannot:
// shards interleave nondeterministically in wall-clock time. Instead, each
// shard appends its records to a private buffer, stamping every record
// with the firing event's (wheel time, ordering key) position. Keys are
// globally unique (cluster id in the high bits, a per-cluster sequence
// below), and cross-cluster messages always travel at least the
// conservative lookahead, so the (time, key) order of fired events is
// identical at every shard count — it IS the width-1 firing order.
//
// Windows cover disjoint time ranges, so every record of one window comes
// before every record of the next. Between the two barriers that close a
// window, worker 0 therefore merges the shards' buffers in (time, key)
// order into the tracer and span recorder and truncates them for reuse:
// the buffers hold one window's records, not a run's, and a run the
// watchdog or the deadline aborts has already emitted every window it ran.
//
// Records a single callback emits share one stamp; they stay adjacent in
// one buffer and the merge preserves their relative order (ties across
// buffers cannot happen because keys are globally unique).

import (
	"time"

	"dircoh/internal/obs"
	"dircoh/internal/sim"
)

// stamped is one trace event or span stamped with the position of the
// event that emitted it. Spans need the explicit time: a span's End field
// is its semantic endpoint, which for ack-gather children can differ from
// the cycle it was emitted at.
type stamped[T any] struct {
	t   sim.Time
	key uint64
	rec T
}

// shardRecs is one shard's records of the current window plus the merge
// cursor, padded to its own cache lines: the hot path rewrites the slice
// header on every append, and adjacent shards' headers would false-share.
type shardRecs[T any] struct {
	recs []stamped[T]
	pos  int
	_    [128 - 32]byte
}

// add appends rec, stamped with cluster c's firing position.
func (b *shardRecs[T]) add(c *clusterNode, rec T) {
	b.recs = append(b.recs, stamped[T]{t: c.eng.Now(), key: c.eng.FiringKey(), rec: rec})
}

// mergeWindow hands every buffered record to sink in (time, key) order,
// then truncates the buffers for the next window. Each buffer is already
// in that order (its shard's wheel fired it so), so repeatedly emitting
// the smallest head is a k-way merge. Callers hold every shard quiescent.
func mergeWindow[T any](bufs []shardRecs[T], sink interface{ Emit(T) }) {
	for {
		var best *shardRecs[T]
		for i := range bufs {
			b := &bufs[i]
			if b.pos == len(b.recs) {
				continue
			}
			if best == nil {
				best = b
				continue
			}
			h, bh := &b.recs[b.pos], &best.recs[best.pos]
			if h.t < bh.t || h.t == bh.t && h.key < bh.key {
				best = b
			}
		}
		if best == nil {
			break
		}
		sink.Emit(best.recs[best.pos].rec)
		best.pos++
	}
	for i := range bufs {
		bufs[i].recs, bufs[i].pos = bufs[i].recs[:0], 0
	}
}

// flushWindow emits the window's trace events and spans, merged across
// shards. Worker 0 calls it between the window barriers of a run wider
// than 1.
func (m *Machine) flushWindow() {
	if m.tr != nil {
		mergeWindow(m.shard.evBuf, m.tr)
	}
	if m.spans != nil {
		mergeWindow(m.shard.spBuf, m.spans)
	}
}

// sampleCluster is the per-cluster queue-depth sampler (Config.SampleEvery).
// It only reads simulator state — directory-controller backlog, live
// directory entries, network ejection-port backlog — so enabling it never
// changes simulation results. Each cluster's chain reads only that
// cluster's state and records into that cluster's private histograms
// (merged at quiescence). The chain is scheduled on the
// reserved ordering key cluster<<40|0 — below every real event key, never
// consumed by nextKey — so enabling sampling shifts no protocol event's
// position and results stay byte-identical across widths.
//
// The chain continues while any of the cluster's own processors is
// unfinished (a width-independent condition; the wheel's Pending count is
// not). A genuinely deadlocked run with no watchdog budget would sample
// forever — but genuine deadlocks require fault injection, which arms the
// watchdog by default.
func (m *Machine) sampleCluster(c *clusterNode) {
	now := c.eng.Now()
	var backlog sim.Time
	if c.dirFree > now {
		backlog = c.dirFree - now
	}
	c.res.dirDepth.Observe(uint64(backlog))
	c.res.dirLive.Observe(uint64(c.dir.LiveEntries()))
	c.res.portDepth.Observe(uint64(c.res.net.PortBacklog(c.id, now)))
	for _, p := range c.procs {
		if !p.done {
			c.scheduleSample(now + m.cfg.SampleEvery)
			return
		}
	}
}

// scheduleSample queues the cluster's next sample at time t on its
// reserved key. The chain is bound once per cluster (sampleFn), so
// sampling allocates nothing per sample.
func (c *clusterNode) scheduleSample(t sim.Time) {
	c.eng.AtKey(t, uint64(c.id)<<40, c.sampleFn)
}

// livePublishEvery throttles in-run snapshot publishing: a sample per
// ~100ms is ample for a human or a poller watching /progress, and the
// wall-clock read happens only when a live slot is attached.
const livePublishEvery = 100 * time.Millisecond

// publishLive installs a fresh sample in the run's live slot, if one is
// attached (Config.Live). Mid-run callers must hold the run quiescent
// (worker 0 publishes between the window barriers).
func (m *Machine) publishLive(done bool) {
	lr := m.cfg.Live
	if lr == nil {
		return
	}
	s := &obs.LiveSample{
		Events:  m.simFired(),
		Done:    done,
		Metrics: m.MetricsSnapshot(),
		Shards:  make([]uint64, m.shard.n),
	}
	for i, w := range m.shard.wheels {
		s.Shards[i] = uint64(w.Now())
		// Report the trailing shard as the simulation's reached time:
		// ahead-of-window wheel times are speculative progress.
		if i == 0 || s.Shards[i] < s.Cycles {
			s.Cycles = s.Shards[i]
		}
	}
	lr.Publish(s)
}
