// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed number of seconds, checks every result it
// produces, and prints one JSON line of metrics.
//
//	perfbench --workload paper-mp3d --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (medians over the
// repetitions of the run) measured with tracing off. With --trace 1 it
// alternates plain and traced repetitions, profiles the traced ones,
// runs the layer drivers, and reports the per-layer metrics; the spans
// and per-layer counts go to a JSON file under --trace-dir. README.md
// documents the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// repOut is what one repetition reports to the harness.
type repOut struct {
	setup float64 // seconds to generated inputs and a built machine (or an opened, submitted campaign)
	wall  float64 // seconds to a checked result
	busy  float64 // seconds the rep's jobs took from submission to the last completion
	// jobs holds per-job latencies in seconds: one per campaign job, or
	// the single repetition of a simulation workload.
	jobs      []float64
	cycles    float64            // simulated cycles
	cycleSecs float64            // host seconds spent simulating them
	digest    string             // digest of the simulated result; equal across reps
	layer     map[string]float64 // per-layer counts of a traced repetition
	retain    any                // the rep's machine and inputs, kept reachable for the harness's live-heap reading
	// Filled in by the harness.
	live                                     []float64 // live heap at the end of each GC cycle, in bytes
	allocBytes, allocObjs, gcCycles, gcPause float64
}

// workload is one benchmark workload bound to a seed.
type workload interface {
	// rep runs one repetition; tr is nil for an untraced repetition.
	rep(tr *tracer) (repOut, error)
	// extras runs the traced run's layer drivers and comparison runs and
	// returns the per-layer metrics they give. traced holds the traced
	// repetitions of the same run.
	extras(traced []repOut) (map[string]float64, error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 25, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/perfbench-out", "directory for the traced run's spans and per-layer file, and for campaign state")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(*traceDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	w, err := newWorkload(*name, *seed, *traceDir)
	if err != nil {
		fatalf("%v", err)
	}
	h := &harness{name: *name, seed: *seed, w: w, seconds: *seconds}
	var res result
	if *trace == 0 {
		res = h.endToEnd()
	} else {
		res = h.traced(*traceDir)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// harness runs repetitions of one workload and checks their results.
type harness struct {
	name    string
	seed    int64
	w       workload
	seconds float64

	attempted, failed int
	digest            string
}

// once runs one repetition under the heap sampler and the runtime
// counters, and checks its digest against the run's first one. A traced
// repetition (tr non-nil) also runs under prof.
func (h *harness) once(tr *tracer, prof *profiler) (repOut, bool) {
	h.attempted++
	runtime.GC() // start every repetition from the same heap
	before := readRuntime()
	stop := sampleLive()
	var out repOut
	var err error
	if tr == nil {
		out, err = h.w.rep(nil)
	} else {
		prof.do(h.name, func() { out, err = h.w.rep(tr) })
	}
	after := readRuntime()
	out.live = append(stop(), float64(liveAt(out.retain)))
	out.retain = nil
	if err == nil && out.digest != "" {
		if h.digest == "" {
			h.digest = out.digest
			fmt.Printf("digest %s seed=%d: %s\n", h.name, h.seed, h.digest)
		} else if out.digest != h.digest {
			err = fmt.Errorf("result digest %s differs from the run's first %s", out.digest, h.digest)
		}
	}
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %v\n", h.name, h.seed, err)
		return out, false
	}
	fmt.Fprintf(os.Stderr, "rep %d: setup %.4fs wall %.4fs cycles/s %.0f job p95 %.4fs live heap max %.2fMB over %d GC cycles\n",
		h.attempted, out.setup, out.wall, out.cycles/out.cycleSecs, quantile(out.jobs, 0.95), slices.Max(out.live)/1e6, len(out.live))
	out.allocBytes = after.allocBytes - before.allocBytes
	out.allocObjs = after.allocObjs - before.allocObjs
	out.gcCycles = after.gcCycles - before.gcCycles
	out.gcPause = after.gcPause - before.gcPause
	return out, true
}

// loop repeats fn until the time budget is spent (at least atLeast
// times) or a repetition fails.
func (h *harness) loop(budget float64, atLeast int, fn func() bool) {
	start := time.Now()
	for n := 0; n < atLeast || time.Since(start).Seconds() < budget; n++ {
		if !fn() {
			return
		}
	}
}

// warmUp runs one checked repetition that is not measured: the first
// repetition of a process pays for growing the heap from the OS.
func (h *harness) warmUp() bool {
	_, ok := h.once(nil, nil)
	return ok
}

// endToEnd measures the workload with tracing off.
func (h *harness) endToEnd() result {
	var reps []repOut
	if !h.warmUp() {
		return h.result(nil, nil)
	}
	h.loop(h.seconds, 3, func() bool {
		out, ok := h.once(nil, nil)
		reps = append(reps, out)
		return ok
	})
	return h.result(endToEndMetrics(reps))
}

// result builds the result line. A run with a failed repetition, or with
// a metric that is not a finite number, reports no metrics.
func (h *harness) result(values map[string]float64, units map[string]string) result {
	metrics := make(map[string]metric, len(values))
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			h.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", h.name, name, v)
		}
		metrics[name] = metric{Value: v, Unit: units[name]}
	}
	if h.failed > 0 {
		metrics = map[string]metric{}
	}
	return result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}
}

// endToEndMetrics reduces the repetitions to the end-to-end metrics:
// medians over repetitions (the job latency median is taken within each
// repetition first), and the 99th percentile of the live heap over every
// GC cycle of the run, so one transient caught by one cycle of
// thousands does not set the peak.
func endToEndMetrics(reps []repOut) (map[string]float64, map[string]string) {
	var setup, wall, cps, jps, p50, heap, alloc []float64
	for _, r := range reps {
		setup = append(setup, r.setup)
		wall = append(wall, r.wall)
		cps = append(cps, r.cycles/r.cycleSecs)
		jps = append(jps, float64(len(r.jobs))/r.busy)
		p50 = append(p50, quantile(r.jobs, 0.50))
		heap = append(heap, r.live...)
		alloc = append(alloc, r.allocBytes)
	}
	values := map[string]float64{
		"sim_cycles_per_s":    median(cps),
		"wall_s":              median(wall),
		"setup_s":             median(setup),
		"heap_peak_bytes":     quantile(heap, 0.99),
		"alloc_bytes":         median(alloc),
		"campaign_jobs_per_s": median(jps),
		"job_p50_s":           median(p50),
	}
	return values, unitsOf(endToEnd)
}

// traced alternates plain and traced repetitions, profiling the traced
// ones, then runs the workload's extras and writes the spans and
// per-layer metrics to dir.
func (h *harness) traced(dir string) result {
	tr := &tracer{start: time.Now()}
	prof := &profiler{}
	var plain, traced []repOut
	if !h.warmUp() {
		return h.result(nil, nil)
	}
	h.loop(h.seconds*2/3, 2, func() bool {
		out, ok := h.once(nil, nil)
		plain = append(plain, out)
		if !ok {
			return false
		}
		tr.rep++
		out, ok = h.once(tr, prof)
		traced = append(traced, out)
		return ok
	})
	var layers map[string]float64
	if h.failed == 0 {
		h.attempted++
		extra, err := h.w.extras(traced)
		if err == nil {
			err = prof.err
		}
		if err != nil {
			h.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", h.name, err)
		}
		layers = perLayerMetrics(traced, plain, extra, prof)
	}
	res := h.result(layers, unitsOf(perLayer))
	if h.failed == 0 {
		if err := writeTrace(dir, h.name, h.seed, tr, layers); err != nil {
			fatalf("%v", err)
		}
	}
	return res
}

// profiler accumulates one CPU profile over the traced repetitions.
type profiler struct {
	samples []profSample
	err     error
}

// do runs fn under a CPU profile labelled with the workload and keeps
// the samples.
func (p *profiler) do(workload string, fn func()) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		p.err = err
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", workload), func(context.Context) { fn() })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.samples = append(p.samples, samples...)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
