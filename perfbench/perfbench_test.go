package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json's workloads and
// metrics to the ones the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("workloads %v, program has %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workload %d: %q, program has %q", i, got[i], want[i])
			}
		}
	}
	for _, c := range []struct {
		section string
		json    []def
		table   []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Errorf("%s: %d metrics, program has %d", c.section, len(c.json), len(c.table))
			continue
		}
		for i, m := range c.table {
			if j := c.json[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s[%d]: %+v, program has %s %s %s", c.section, i, j, m.name, m.unit, m.better)
			}
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"dircoh/internal/sim.(*Engine).Step", "dircoh/internal/machine.(*Machine).runCore"}, "sim"},
		{[]string{"container/heap.down", "container/heap.Pop", "dircoh/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "dircoh/internal/cache.NewCache"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mapaccess2", "dircoh/internal/machine.(*Machine).home"}, "runtime"},
		{[]string{"dircoh/internal/bitset.Set.Add", "dircoh/internal/core.(*coarseEntry).AddSharer"}, "core"},
		{[]string{"dircoh/internal/runner.(*Pool).worker"}, "campaign"},
		{[]string{"main.main"}, "other"},
		{nil, "other"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseProfile decodes a real CPU profile of a busy loop and finds
// the loop's function in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	pprof.Do(context.Background(), pprof.Labels("workload", "test"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "dircoh/perfbench.spin" {
				found = found || s.n > 0
			}
		}
	}
	if !found {
		t.Errorf("no sample in spin among %d samples", len(samples))
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	sink = x
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

func TestCheckStressResult(t *testing.T) {
	line := "trial   0 seed=1            scheme=cv procs=8 ppc=1 dir=fullmap sync=true  exec=100 cycles\n"
	var clean bytes.Buffer
	for i := 0; i < stressTrials; i++ {
		clean.WriteString(line)
	}
	cycles, err := checkStressResult(clean.String())
	if err != nil || cycles != 100*stressTrials {
		t.Errorf("clean result: cycles %v, err %v", cycles, err)
	}
	bad := clean.String() + "  violation: single-writer\n"
	if _, err := checkStressResult(bad); err == nil {
		t.Error("a violation line passed the check")
	}
}
