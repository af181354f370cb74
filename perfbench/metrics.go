package main

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics of an untraced run, as in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "sim_cycles_per_s", unit: "cycles/s", better: "higher"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_peak_bytes", unit: "B", better: "lower"},
	{name: "alloc_bytes", unit: "B", better: "lower"},
	{name: "campaign_jobs_per_s", unit: "jobs/s", better: "higher"},
	{name: "job_p50_s", unit: "s", better: "lower"},
}

// What each group of per-layer metrics should move, and on which
// workload (README.md has the same map).
const (
	movesGen      = "setup_s on paper-mp3d and paper-dwf-sparse"
	movesNew      = "setup_s and heap_peak_bytes on scale-1024"
	movesRun      = "sim_cycles_per_s and wall_s on every simulation workload"
	movesShards   = "sim_cycles_per_s on scale-1024"
	movesCache    = "sim_cycles_per_s on paper-mp3d; setup_s on scale-1024"
	movesInvals   = "sim_cycles_per_s on paper-dwf-sparse and scale-1024"
	movesEntry    = "heap_peak_bytes on scale-1024"
	movesSparse   = "sim_cycles_per_s on paper-dwf-sparse"
	movesSparseHP = "heap_peak_bytes on paper-dwf-sparse"
	movesMP3D     = "sim_cycles_per_s on paper-mp3d"
	movesCampaign = "campaign_jobs_per_s and job_p50_s on campaign-stress"
	movesGC       = "sim_cycles_per_s on paper-mp3d; setup_s and heap_peak_bytes on scale-1024"
)

// perLayer are the metrics of a traced run, as in BENCHMARK.json. A
// workload that does no work in a layer reports 0 for its counts.
var perLayer = []metricDef{
	{"apps.gen_s", "s", "lower", movesGen},
	{"tango.refs", "count", "lower", movesGen},
	{"machine.new_s", "s", "lower", movesNew},
	{"machine.new_alloc_bytes", "B", "lower", movesNew},
	{"machine.run_s", "s", "lower", movesRun},
	{"machine.check_s", "s", "lower", movesRun},
	{"machine.exec_cycles", "cycles", "lower", movesRun},
	{"sim.events", "count", "lower", movesRun},
	{"machine.ns_per_event", "ns", "lower", movesRun},
	{"machine.shard_speedup", "x", "higher", movesShards},
	{"cache.accesses", "count", "lower", movesCache},
	{"cache.l1_hit_ratio", "fraction", "higher", movesCache},
	{"cache.misses", "count", "lower", movesCache},
	{"cache.evictions", "count", "lower", movesCache},
	{"cache.ns_per_access", "ns", "lower", movesCache},
	{"core.inval_events", "count", "lower", movesInvals},
	{"core.invals_per_event", "count", "lower", movesInvals},
	{"core.extraneous_invals", "count", "lower", movesInvals},
	{"core.entry_bits", "bits", "lower", movesEntry},
	{"core.entry_bytes", "B", "lower", movesEntry},
	{"sparse.lookups", "count", "lower", movesSparse},
	{"sparse.hit_ratio", "fraction", "higher", movesSparse},
	{"sparse.replacements", "count", "lower", movesSparse},
	{"sparse.repl_invals_per_event", "count", "lower", movesSparse},
	{"sparse.peak_entries", "count", "lower", movesSparseHP},
	{"sparse.ns_per_op", "ns", "lower", movesSparse},
	{"mesh.msgs", "count", "lower", movesMP3D},
	{"mesh.msgs.req", "count", "lower", movesMP3D},
	{"mesh.msgs.reply", "count", "lower", movesMP3D},
	{"mesh.msgs.inval", "count", "lower", movesMP3D},
	{"mesh.msgs.ack", "count", "lower", movesMP3D},
	{"mesh.avg_hops", "hops", "lower", movesMP3D},
	{"sim.ns_per_event", "ns", "lower", movesMP3D},
	{"obs.overhead_ratio", "x", "lower", movesCampaign},
	{"campaign.queue_wait_s", "s", "lower", movesCampaign},
	{"campaign.job_run_s", "s", "lower", movesCampaign},
	{"campaign.durable_overhead_ratio", "x", "lower", movesCampaign},
	{"campaign.retries", "count", "lower", movesCampaign},
	{"runner.busy_frac", "fraction", "higher", movesCampaign},
	{"job_p95_s", "s", "lower", "job_p50_s and campaign_jobs_per_s on campaign-stress"},
	{"gc.cycles", "count", "lower", movesGC},
	{"gc.pause_s", "s", "lower", movesGC},
	{"gc.alloc_objs", "count", "lower", movesGC},
	{"apps.self_s", "s", "lower", movesGen},
	{"sim.self_s", "s", "lower", movesMP3D},
	{"machine.self_s", "s", "lower", movesMP3D},
	{"cache.self_s", "s", "lower", movesCache},
	{"core.self_s", "s", "lower", movesInvals},
	{"sparse.self_s", "s", "lower", movesSparse},
	{"mesh.self_s", "s", "lower", movesMP3D},
	{"obs.self_s", "s", "lower", movesCampaign},
	{"check.self_s", "s", "lower", movesCampaign},
	{"campaign.self_s", "s", "lower", movesCampaign},
	{"gc.self_s", "s", "lower", movesGC},
	{"runtime.self_s", "s", "lower", movesRun},
	{"other.self_s", "s", "lower", "wall_s on every workload"},
	{"trace_overhead_ratio", "x", "lower", "nothing: the cost of the traced run itself"},
}

func unitsOf(defs []metricDef) map[string]string {
	units := make(map[string]string, len(defs))
	for _, m := range defs {
		units[m.name] = m.unit
	}
	return units
}

// perLayerMetrics reduces a traced run to the per-layer metrics: medians
// over traced repetitions of the counts read at span boundaries, the
// extras' driver and comparison figures, each layer's self time (its
// share of the profile samples times the median traced repetition), and
// the traced / plain wall-time ratio, and the plain repetitions' job
// latency p95. Metrics the workload does not produce read 0.
func perLayerMetrics(traced, plain []repOut, extra map[string]float64, prof *profiler) map[string]float64 {
	var tracedWall, plainWall, plainP95, gcCycles, gcPause, allocObjs []float64
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall)
		gcCycles = append(gcCycles, r.gcCycles)
		gcPause = append(gcPause, r.gcPause)
		allocObjs = append(allocObjs, r.allocObjs)
	}
	for _, r := range plain {
		plainWall = append(plainWall, r.wall)
		plainP95 = append(plainP95, quantile(r.jobs, 0.95))
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = median(layerValues(traced, m.name))
	}
	for name, v := range extra {
		out[name] = v
	}
	out["gc.cycles"] = median(gcCycles)
	out["gc.pause_s"] = median(gcPause)
	out["gc.alloc_objs"] = median(allocObjs)
	wall := median(tracedWall)
	shares := layerShares(prof.samples)
	for _, layer := range selfLayers {
		out[layer+".self_s"] = shares[layer] * wall
	}
	out["trace_overhead_ratio"] = wall / median(plainWall)
	out["job_p95_s"] = median(plainP95)
	return out
}
