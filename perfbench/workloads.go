package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"runtime"
	"time"

	"dircoh/internal/apps"
	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
	"dircoh/internal/sparse"
	"dircoh/internal/stats"
	"dircoh/internal/tango"
)

// Workload sizes. Each simulation repetition takes about a second on a
// 2-CPU host, so a run holds enough repetitions for stable medians.
const (
	mp3dSteps     = 40  // MP3D time steps: ~693k simulated cycles
	dwfChunks     = 160 // DWF library chunks (wavefront width)
	scaleClusters = 1024
	scaleRounds   = 200
)

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string {
	return []string{"paper-mp3d", "paper-dwf-sparse", "scale-1024", "campaign-stress"}
}

// newWorkload binds the named workload to seed. dir holds campaign state.
func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "paper-mp3d":
		return &simWorkload{
			gen: func() *tango.Workload {
				c := apps.DefaultMP3D(32)
				c.Steps = mp3dSteps
				c.Seed = seed
				return apps.MP3D(c)
			},
			cfg: func() machine.Config {
				c := machine.DefaultConfig(machine.CoarseVec2)
				c.Seed = seed
				return c
			},
		}, nil
	case "paper-dwf-sparse":
		return &simWorkload{
			gen: func() *tango.Workload {
				c := apps.DefaultDWF(32)
				c.Chunks = dwfChunks
				c.Seed = seed
				return apps.DWF(c)
			},
			cfg: func() machine.Config {
				// The paper's Fig. 12 setup: size factor 1, 4-way,
				// Random replacement, scaled 2 KB caches.
				c := exp.SparseConfigFor("DWF", machine.CoarseVec2, 32, 1, 4, sparse.Random)
				c.Seed = seed
				return c
			},
		}, nil
	case "scale-1024":
		return &simWorkload{
			gen: func() *tango.Workload { return exp.ScaleProbe(scaleClusters, scaleRounds) },
			cfg: func() machine.Config {
				c := machine.DefaultConfig(machine.TwoLevel)
				c.Procs = scaleClusters
				c.Barrier = machine.TreeBarrier
				c.Shards = runtime.GOMAXPROCS(0)
				c.Seed = seed
				return c
			},
		}, nil
	case "campaign-stress":
		return newCampaignWorkload(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// simWorkload is a simulation workload: generate the reference streams,
// build the machine, run it, check coherence.
type simWorkload struct {
	gen func() *tango.Workload
	cfg func() machine.Config

	last *tango.Workload // the last traced repetition's inputs, replayed by the layer drivers
}

func (s *simWorkload) rep(tr *tracer) (repOut, error) {
	root := tr.begin("rep", 0)
	t0 := time.Now()

	id := tr.begin("apps.gen", root)
	w := s.gen()
	t1 := time.Now()
	refs := 0
	for _, st := range w.Streams {
		refs += len(st)
	}
	tr.end(id, map[string]float64{"tango.refs": float64(refs)})

	cfg := s.cfg()
	var live *obs.LiveRun
	if tr != nil {
		live = obs.NewLive().Run("rep")
		cfg.Live = live
	}
	id = tr.begin("machine.new", root)
	allocBefore := allocatedBytes()
	m, err := machine.New(cfg)
	t2 := time.Now()
	newAlloc := allocatedBytes() - allocBefore
	tr.end(id, map[string]float64{"alloc_bytes": newAlloc})
	if err != nil {
		return repOut{}, fmt.Errorf("machine.New: %w", err)
	}

	id = tr.begin("machine.run", root)
	r, err := m.Run(w)
	t3 := time.Now()
	if err != nil {
		tr.end(id, nil)
		return repOut{}, fmt.Errorf("machine.Run: %w", err)
	}
	var counts map[string]float64
	if tr != nil {
		counts = resultCounts(r, m.MetricsSnapshot(), live.Latest())
	}
	tr.end(id, counts)

	id = tr.begin("machine.check", root)
	err = m.CheckCoherence()
	t4 := time.Now()
	tr.end(id, nil)
	if err != nil {
		return repOut{}, fmt.Errorf("coherence check: %w", err)
	}
	tr.end(root, nil)

	wall := t4.Sub(t0).Seconds()
	out := repOut{
		setup:     t2.Sub(t0).Seconds(),
		wall:      wall,
		busy:      wall,
		jobs:      []float64{wall},
		cycles:    float64(r.ExecTime),
		cycleSecs: t3.Sub(t2).Seconds(),
		digest:    resultDigest(r),
		retain:    []any{m, w},
	}
	if tr != nil {
		s.last = w
		out.layer = maps.Clone(counts)
		run := t3.Sub(t2).Seconds()
		out.layer["tango.refs"] = float64(refs)
		out.layer["apps.gen_s"] = t1.Sub(t0).Seconds()
		out.layer["machine.new_s"] = t2.Sub(t1).Seconds()
		out.layer["machine.new_alloc_bytes"] = newAlloc
		out.layer["machine.run_s"] = run
		out.layer["machine.check_s"] = t4.Sub(t3).Seconds()
		out.layer["machine.ns_per_event"] = ratio(run*1e9, counts["sim.events"])
	}
	return out, nil
}

// resultCounts reads the per-layer counts of one run from its Result,
// its metrics snapshot and the final live sample.
func resultCounts(r *machine.Result, snap obs.Snapshot, final *obs.LiveSample) map[string]float64 {
	c := r.Cache
	accesses := float64(c.Reads + c.Writes)
	var events float64
	if final != nil {
		events = float64(final.Events)
	}
	return map[string]float64{
		"machine.exec_cycles": float64(r.ExecTime),
		"sim.events":          events,

		"cache.accesses":     accesses,
		"cache.l1_hit_ratio": ratio(float64(c.L1Hits), accesses),
		"cache.misses":       float64(c.Misses),
		"cache.evictions":    float64(c.Evictions),

		"core.inval_events":      float64(r.InvalHist.Events()),
		"core.invals_per_event":  r.InvalHist.Mean(),
		"core.extraneous_invals": float64(snap.Counter("dir.inval.extraneous")),
		"core.entry_bits":        float64(r.DirEntryBits),
		"core.entry_bytes":       float64(r.DirEntryBytes),

		"sparse.lookups":               float64(r.Dir.Lookups),
		"sparse.hit_ratio":             ratio(float64(r.Dir.Hits), float64(r.Dir.Lookups)),
		"sparse.replacements":          float64(r.Replacements),
		"sparse.repl_invals_per_event": r.ReplHist.Mean(),
		"sparse.peak_entries":          float64(r.DirPeak),

		"mesh.msgs":       float64(r.Net.Messages),
		"mesh.msgs.req":   float64(r.Msgs[stats.Request]),
		"mesh.msgs.reply": float64(r.Msgs[stats.Reply]),
		"mesh.msgs.inval": float64(r.Msgs[stats.Invalidation]),
		"mesh.msgs.ack":   float64(r.Msgs[stats.Ack]),
		"mesh.avg_hops":   ratio(float64(r.Net.Hops), float64(r.Net.Messages)),
	}
}

// ratio is num/den, or 0 when there was nothing to divide.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resultDigest hashes the simulated statistics a host-speed change must
// leave identical.
func resultDigest(r *machine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "exec=%d msgs=%v inval=%v repl=%v cache=%+v dir=%+v repl=%d",
		r.ExecTime, r.Msgs, r.InvalHist, r.ReplHist, r.Cache, r.Dir, r.Replacements)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runOnly builds a machine from cfg and times Machine.Run on w, starting
// from a collected heap.
func runOnly(cfg machine.Config, w *tango.Workload) (float64, error) {
	runtime.GC()
	m, err := machine.New(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := m.Run(w); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// extras runs the layer drivers over the last repetition's inputs, and
// the comparison runs: shard widths 1 and GOMAXPROCS, and observability
// on discard sinks.
func (s *simWorkload) extras(traced []repOut) (map[string]float64, error) {
	w := s.last
	cfg := s.cfg()
	out := map[string]float64{}
	var err error
	if out["cache.ns_per_access"], err = cacheDriver(cfg, w); err != nil {
		return nil, err
	}
	if out["sparse.ns_per_op"], err = sparseDriver(cfg, w); err != nil {
		return nil, err
	}
	events := median(layerValues(traced, "sim.events"))
	out["sim.ns_per_event"] = simDriver(cfg.Clusters(), uint64(events))

	wide := cfg
	wide.Shards = runtime.GOMAXPROCS(0)
	narrow := cfg
	narrow.Shards = 1
	t1, err := runOnly(narrow, w)
	if err != nil {
		return nil, fmt.Errorf("width-1 run: %w", err)
	}
	tn, err := runOnly(wide, w)
	if err != nil {
		return nil, fmt.Errorf("width-%d run: %w", wide.Shards, err)
	}
	out["machine.shard_speedup"] = t1 / tn

	withObs := cfg
	withObs.Trace = obs.NewTracer(obs.Discard, 0)
	withObs.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
	withObs.SampleEvery = 64
	to, err := runOnly(withObs, w)
	if err != nil {
		return nil, fmt.Errorf("observed run: %w", err)
	}
	out["obs.overhead_ratio"] = to / median(layerValues(traced, "machine.run_s"))
	return out, nil
}

// layerValues collects one per-layer count across repetitions.
func layerValues(reps []repOut, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, r.layer[name])
	}
	return xs
}
