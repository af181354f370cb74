package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// repetition share Rep; Parent is the ID of the enclosing span (0 for a
// repetition's root). Counts are the per-layer counts read at the span's
// end.
type span struct {
	Rep    int                `json:"rep"`
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // seconds since the run began
	End    float64            `json:"end_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced repetitions pass nil. It is
// used from the benchmark's main goroutine only.
type tracer struct {
	start time.Time
	rep   int
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Rep: t.rep, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.start).Seconds()})
	return len(t.spans)
}

// end closes span id with the counts read at its boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.start).Seconds()
	s.Counts = counts
}

// add records a span whose bounds were timed elsewhere (a campaign job,
// timed from its worker's start to its completion event).
func (t *tracer) add(name string, parent int, start, end time.Time, counts map[string]float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Rep: t.rep, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.start).Seconds(), End: end.Sub(t.start).Seconds(), Counts: counts})
}

// layerRecord is one per-layer metric with the end-to-end metric and
// workload it should move.
type layerRecord struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// writeTrace writes the traced run's spans and per-layer metrics to
// dir/trace-<workload>-seed<seed>.json.
func writeTrace(dir, workload string, seed int64, tr *tracer, layers map[string]float64) error {
	doc := struct {
		Workload   string        `json:"workload"`
		Seed       int64         `json:"seed"`
		CPUs       int           `json:"cpus"`
		GoMaxProcs int           `json:"gomaxprocs"`
		GoVersion  string        `json:"go_version"`
		PerLayer   []layerRecord `json:"per_layer"`
		Spans      []span        `json:"spans"`
	}{workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), nil, tr.spans}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerRecord{m.name, layers[m.name], m.unit, m.moves})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return nil
}
