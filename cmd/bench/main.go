// Command bench records the simulator's performance trajectory: a pinned
// workload matrix (scheme × processor count × application), each cell run
// at a fixed set of machine-core shard widths, measuring wall time,
// cycles simulated per second, heap allocations and per-entry directory
// bytes — once with observability off and once with event tracing, span
// recording, and queue sampling enabled on discard sinks, so the
// instrumentation's cost is tracked per width alongside raw throughput.
// Results go to a JSON file (BENCH_10.json by default) so successive PRs
// can diff throughput on the same matrix.
//
// Besides the paper's 32-processor figure workloads, the matrix carries
// two 1024-cluster scale-probe cells (full vector and the adaptive
// two-level directory), so throughput and memory at the sizes the compact
// encodings exist for are pinned alongside the small grid.
//
// Shard width 1 — one worker on the event wheel, the default — is the
// baseline every other width's speedup is computed against. Speedups are
// reported per matrix cell; on a single-CPU host the widths > 1 cannot
// beat width 1, and the recorded host.cpus says so.
//
// One extra cell benchmarks the campaign service's durability machinery:
// the same pinned stress campaign run volatile (no persistence) and
// durable (fsynced journal appends plus periodic checkpoint compaction),
// reported as jobs/sec each way and the durable/volatile overhead ratio.
//
//	bench                   # full matrix, ~3 minutes
//	bench -quick            # one cell, one repetition, for CI
//	bench -o BENCH_10.json  # output path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dircoh/internal/campaign"
	"dircoh/internal/cli"
	"dircoh/internal/core"
	"dircoh/internal/exp"
	"dircoh/internal/machine"
	"dircoh/internal/obs"
	"dircoh/internal/tango"
)

const tool = "bench"

// cell is one point of the pinned matrix.
type cell struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Procs  int    `json:"procs"`
}

// result is one measured run of a cell at one shard width.
type result struct {
	cell
	Shards       int     `json:"shards"`
	Reps         int     `json:"reps"`
	WallSeconds  float64 `json:"wall_seconds"` // best repetition
	Cycles       uint64  `json:"cycles"`       // simulated cycles (ExecTime)
	CyclesPerSec float64 `json:"cycles_per_sec"`
	AllocObjs    uint64  `json:"alloc_objs"`  // heap objects per run
	AllocBytes   uint64  `json:"alloc_bytes"` // heap bytes per run

	// Per-entry directory cost of the cell's scheme at the cell's size:
	// architectural bits and simulator heap bytes (Result.DirEntryBits /
	// DirEntryBytes).
	DirEntryBits  int `json:"dir_entry_bits"`
	DirEntryBytes int `json:"dir_entry_bytes"`

	// The same cell with tracing, spans, and queue sampling enabled on
	// discard sinks. ObsOverhead is ObsWallSeconds / WallSeconds.
	ObsWallSeconds  float64 `json:"obs_wall_seconds"`
	ObsCyclesPerSec float64 `json:"obs_cycles_per_sec"`
	ObsOverhead     float64 `json:"obs_overhead"`
}

// speedup summarizes one cell: cycles/sec at each width over width 1.
type speedup struct {
	cell
	OverWidth1 map[string]float64 `json:"over_width1"` // width -> cps(width)/cps(1)
}

// campaignResult pins the campaign service's durability cost: one fixed
// stress campaign run volatile (Root "", nothing persisted) and durable
// (fsynced journal appends, checkpoint compaction every 2 jobs), best
// wall time of each over the repetitions.
type campaignResult struct {
	Jobs               int     `json:"jobs"`
	Reps               int     `json:"reps"`
	VolatileSeconds    float64 `json:"volatile_seconds"`
	VolatileJobsPerSec float64 `json:"volatile_jobs_per_sec"`
	DurableSeconds     float64 `json:"durable_seconds"`
	DurableJobsPerSec  float64 `json:"durable_jobs_per_sec"`
	CheckpointOverhead float64 `json:"checkpoint_overhead"` // durable / volatile wall
}

type report struct {
	Version    int             `json:"version"`
	Tool       string          `json:"tool"`
	Quick      bool            `json:"quick"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	CPUs       int             `json:"cpus"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Widths     []int           `json:"shard_widths"`
	Results    []result        `json:"results"`
	Speedups   []speedup       `json:"speedups"`
	Campaign   *campaignResult `json:"campaign,omitempty"`
}

var schemes = []struct {
	name string
	f    machine.SchemeFactory
}{
	{"Dir32", machine.FullVec},
	{"Dir3CV2", machine.CoarseVec2},
}

// scaleProbeApp is the synthetic large-machine workload; cells naming it
// run exp.ScaleProbe instead of a paper application.
const scaleProbeApp = "scale-probe"

// matrix returns the pinned cells. The 32-processor figure workloads are
// the paper's own experiment grid; the 1024-cluster scale-probe cells pin
// throughput and directory bytes at large geometry. -quick keeps one
// representative cell.
func matrix(quick bool) []cell {
	if quick {
		return []cell{{App: "LocusRoute", Scheme: "Dir3CV2", Procs: 32}}
	}
	var cells []cell
	for _, app := range []string{"LU", "MP3D", "LocusRoute"} {
		for _, s := range schemes {
			cells = append(cells, cell{App: app, Scheme: s.name, Procs: 32})
		}
	}
	cells = append(cells,
		cell{App: scaleProbeApp, Scheme: "full", Procs: 1024},
		cell{App: scaleProbeApp, Scheme: "tl", Procs: 1024},
	)
	return cells
}

// workload builds the cell's reference stream: a paper application, or
// the scale probe for the large-geometry cells.
func workload(c cell) *tango.Workload {
	if c.App == scaleProbeApp {
		return exp.ScaleProbe(c.Procs, 2)
	}
	return exp.Workload(c.App, c.Procs)
}

// factory resolves a cell's scheme: the pinned 32-processor pair first,
// then any registry spec ("full", "tl", "Dir4R32", ...) so the scale
// cells need no bespoke table.
func factory(name string) machine.SchemeFactory {
	for _, s := range schemes {
		if s.name == name {
			return s.f
		}
	}
	f, err := core.Parse(name)
	if err != nil {
		cli.Fatalf(tool, "unknown scheme %q: %v", name, err)
	}
	return f
}

// runOnce executes one cell once, with or without observability, and
// returns the wall seconds, the run result, and allocation deltas.
func runOnce(c cell, w *tango.Workload, shards int, withObs bool) (wall float64, res *machine.Result, objs, bytes uint64) {
	cfg := machine.DefaultConfig(factory(c.Scheme))
	cfg.Procs = c.Procs
	cfg.Shards = shards
	if withObs {
		cfg.Trace = obs.NewTracer(obs.Discard, 0)
		cfg.Spans = obs.NewSpanRecorder(obs.DiscardSpans, 0)
		cfg.SampleEvery = 64
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := machine.New(cfg)
	if err != nil {
		cli.Fatalf(tool, "%s/%s: %v", c.App, c.Scheme, err)
	}
	r, err := m.Run(w)
	if err != nil {
		cli.Fatalf(tool, "%s/%s: %v", c.App, c.Scheme, err)
	}
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, r, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// measure runs one cell at one width reps times, obs off and on, and
// keeps each mode's best wall time; allocations come from the final
// obs-off repetition.
func measure(c cell, w *tango.Workload, shards, reps int) result {
	res := result{cell: c, Shards: shards, Reps: reps}
	for rep := 0; rep < reps; rep++ {
		wall, r, objs, bytes := runOnce(c, w, shards, false)
		res.Cycles = uint64(r.ExecTime)
		res.DirEntryBits = r.DirEntryBits
		res.DirEntryBytes = r.DirEntryBytes
		res.AllocObjs = objs
		res.AllocBytes = bytes
		if rep == 0 || wall < res.WallSeconds {
			res.WallSeconds = wall
		}
		obsWall, _, _, _ := runOnce(c, w, shards, true)
		if rep == 0 || obsWall < res.ObsWallSeconds {
			res.ObsWallSeconds = obsWall
		}
	}
	res.CyclesPerSec = float64(res.Cycles) / res.WallSeconds
	res.ObsCyclesPerSec = float64(res.Cycles) / res.ObsWallSeconds
	res.ObsOverhead = res.ObsWallSeconds / res.WallSeconds
	return res
}

// campaignSpec is the pinned campaign cell: 8 stress trials, one job
// each, serial so journal and checkpoint I/O sits on the critical path.
func campaignSpec() campaign.Spec {
	return campaign.Spec{
		Kind: "stress", Name: "bench",
		Stress: &campaign.StressSpec{Trials: 8, Seed: 11, Procs: []int{4}, Refs: 400, Blocks: 16},
	}
}

// campaignWall runs the pinned campaign once under root ("" = volatile)
// and returns the submit-to-done wall seconds.
func campaignWall(root string) float64 {
	m, err := campaign.Open(campaign.Config{Root: root, CheckpointEvery: 2, Parallel: 1})
	if err != nil {
		cli.Fatalf(tool, "campaign: %v", err)
	}
	defer m.Close()
	start := time.Now()
	c, err := m.Submit("bench", campaignSpec())
	if err != nil {
		cli.Fatalf(tool, "campaign: %v", err)
	}
	for {
		st, ok := m.Get(c.ID)
		if !ok {
			cli.Fatalf(tool, "campaign %s vanished", c.ID)
		}
		switch st.State {
		case campaign.StateDone:
			return time.Since(start).Seconds()
		case campaign.StateFailed:
			cli.Fatalf(tool, "campaign failed: %+v", st.Failures)
		}
		time.Sleep(time.Millisecond)
	}
}

// measureCampaign times the pinned campaign volatile and durable, best
// wall of reps each.
func measureCampaign(reps int) campaignResult {
	scratch, err := os.MkdirTemp("", "bench-campaign")
	if err != nil {
		cli.Fatalf(tool, "campaign: %v", err)
	}
	defer os.RemoveAll(scratch)
	spec := campaignSpec()
	cr := campaignResult{Jobs: spec.Jobs(), Reps: reps}
	for rep := 0; rep < reps; rep++ {
		if wall := campaignWall(""); rep == 0 || wall < cr.VolatileSeconds {
			cr.VolatileSeconds = wall
		}
		dir := filepath.Join(scratch, fmt.Sprintf("r%d", rep))
		if wall := campaignWall(dir); rep == 0 || wall < cr.DurableSeconds {
			cr.DurableSeconds = wall
		}
	}
	cr.VolatileJobsPerSec = float64(cr.Jobs) / cr.VolatileSeconds
	cr.DurableJobsPerSec = float64(cr.Jobs) / cr.DurableSeconds
	cr.CheckpointOverhead = cr.DurableSeconds / cr.VolatileSeconds
	return cr
}

func main() {
	var (
		quick = flag.Bool("quick", false, "one cell, one repetition (CI smoke)")
		reps  = flag.Int("reps", 3, "repetitions per point (best wall time wins)")
		out   = flag.String("o", "BENCH_10.json", "output JSON path ('-' for stdout)")
	)
	flag.Parse()
	if *quick {
		*reps = 1
	}
	if *reps <= 0 {
		cli.Usagef(tool, "-reps must be positive")
	}

	widths := []int{1, 2, 4}
	rep := report{
		Version: 5, Tool: tool, Quick: *quick,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Widths: widths,
	}

	for _, c := range matrix(*quick) {
		w := workload(c)
		sp := speedup{cell: c, OverWidth1: map[string]float64{}}
		var base float64
		for _, width := range widths {
			r := measure(c, w, width, *reps)
			rep.Results = append(rep.Results, r)
			if width == 1 {
				base = r.CyclesPerSec
			} else if base > 0 {
				sp.OverWidth1[fmt.Sprintf("%d", width)] = r.CyclesPerSec / base
			}
			fmt.Fprintf(os.Stderr, "%s %s procs=%d shards=%d: %.2fs wall, %.0f cycles/s, %d allocs, obs overhead %.2fx\n",
				c.App, c.Scheme, c.Procs, width, r.WallSeconds, r.CyclesPerSec, r.AllocObjs, r.ObsOverhead)
		}
		rep.Speedups = append(rep.Speedups, sp)
	}

	cr := measureCampaign(*reps)
	rep.Campaign = &cr
	fmt.Fprintf(os.Stderr, "campaign %d jobs: volatile %.0f jobs/s, durable %.0f jobs/s, checkpoint overhead %.2fx\n",
		cr.Jobs, cr.VolatileJobsPerSec, cr.DurableJobsPerSec, cr.CheckpointOverhead)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %s\n", tool, *out)
}
