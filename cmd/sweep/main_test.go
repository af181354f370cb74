package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dircoh/internal/exp"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestSweepGoldenAnalytic locks the `sweep -only t1,2` output: Table 1's
// overhead arithmetic and Figure 2's Monte-Carlo curves at a small trial
// count with the fixed seed the sweep always uses.
func TestSweepGoldenAnalytic(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, "t1,2", 8, 64)
	checkGolden(t, "sweep_t1_2.golden", buf.Bytes())
}

// TestSweepGoldenTable2 locks the Table 2 formatting at a small machine
// size (workload characterization only — no simulation).
func TestSweepGoldenTable2(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, "t2", 8, 1)
	checkGolden(t, "sweep_t2.golden", buf.Bytes())
}

// TestSweepGoldenScale locks the analytic half of the beyond-64 section:
// Table 1 extended along the paper's growth axis and the per-scheme entry
// cost table at 64-4096 clusters. Pure arithmetic, no simulation.
func TestSweepGoldenScale(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, "scale", 8, 1)
	checkGolden(t, "sweep_scale.golden", buf.Bytes())
}

// TestSweepGoldenScaleSim locks the simulated beyond-64 figure: the scale
// probe at 256, 1024 and 4096 clusters under the full roster. Caches
// allocate storage only for the sets a run touches, so even the
// 4096-cluster cell is cheap enough to run in short mode.
func TestSweepGoldenScaleSim(t *testing.T) {
	var buf bytes.Buffer
	runSweep(exp.NewSession(exp.Observer{}, 0, 0), &buf, "scale-sim", 8, 1)
	checkGolden(t, "sweep_scale_sim.golden", buf.Bytes())
}

// TestScaleSmokeSerialVsSharded is the bounded large-geometry smoke: one
// 1024-cluster scale cell (the adaptive two-level scheme) run on the
// sharded machine core at widths 1 and 4 must render byte-identically —
// the width-independence guarantee exercised at the scale the compact
// encodings exist for. Bounded to a single cell so CI stays fast.
func TestScaleSmokeSerialVsSharded(t *testing.T) {
	saved := exp.ScaleSchemes
	exp.ScaleSchemes = exp.ScaleSchemes[2:3] // Two Level only
	defer func() { exp.ScaleSchemes = saved }()
	render := func(shards int) []byte {
		var buf bytes.Buffer
		_, tb := exp.NewSession(exp.Observer{}, 0, shards).ScaleStudy([]int{1024}, 2)
		buf.WriteString(tb.String())
		return buf.Bytes()
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty scale output")
	}
	if got := render(4); !bytes.Equal(got, want) {
		t.Fatalf("-shards 4 scale cell differs from -shards 1:\n--- shards 1 ---\n%s\n--- shards 4 ---\n%s", want, got)
	}
}

// TestSweepParallelismInvariant renders a simulation-backed section at
// several pool widths and requires byte-identical output.
func TestSweepParallelismInvariant(t *testing.T) {
	render := func(par int) []byte {
		var buf bytes.Buffer
		runSweep(exp.NewSession(exp.Observer{}, par, 0), &buf, "3-6", 8, 1)
		return buf.Bytes()
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty sweep output")
	}
	for _, par := range []int{2, 4} {
		if got := render(par); !bytes.Equal(got, want) {
			t.Fatalf("-parallel %d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				par, want, got)
		}
	}
}

// TestSweepShardsInvariant renders a simulation-backed section with the
// sharded machine core at several widths and requires byte-identical
// output — the end-to-end form of the sharded engine's equivalence
// guarantee. Width 1 (also what -shards 0 selects) is the reference:
// every width shares the canonical (time, origin cluster, sequence) event
// order.
func TestSweepShardsInvariant(t *testing.T) {
	render := func(shards int) []byte {
		var buf bytes.Buffer
		runSweep(exp.NewSession(exp.Observer{}, 0, shards), &buf, "7-10", 8, 1)
		return buf.Bytes()
	}
	want := render(1)
	if len(want) == 0 {
		t.Fatal("empty sweep output")
	}
	for _, shards := range []int{2, 4} {
		if got := render(shards); !bytes.Equal(got, want) {
			t.Fatalf("-shards %d output differs from -shards 1:\n--- shards 1 ---\n%s\n--- shards %d ---\n%s",
				shards, want, shards, got)
		}
	}
}

func TestWant(t *testing.T) {
	cases := []struct {
		only, key string
		want      bool
	}{
		{"", "7-10", true},
		{"all", "13", true},
		{"t1,2", "t1", true},
		{"t1,2", "2", true},
		{"t1, 2", "2", true},
		{"t1,2", "t2", false},
		{"7-10", "7", false},
	}
	for _, c := range cases {
		if got := want(c.only, c.key); got != c.want {
			t.Errorf("want(%q, %q) = %v, want %v", c.only, c.key, got, c.want)
		}
	}
}
