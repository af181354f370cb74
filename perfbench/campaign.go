package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dircoh/internal/campaign"
)

// Campaign size: 200 stress trials, so each repetition gives 200 job
// latencies and the 95th percentile has 10 samples beyond it.
const (
	stressTrials = 200
	stressRefs   = 400
)

// jobIdle bounds the wait for the next job completion before the
// repetition is declared stuck.
const jobIdle = time.Minute

// campaignWorkload runs one durable stress campaign per repetition
// through an in-process campaign.Manager.
type campaignWorkload struct {
	spec    campaign.Spec
	dir     string // parent of each repetition's campaign state directory
	workers int
}

func newCampaignWorkload(seed int64, dir string) *campaignWorkload {
	return &campaignWorkload{
		spec: campaign.Spec{Kind: "stress", Name: "perfbench", Stress: &campaign.StressSpec{
			Trials: stressTrials, Seed: seed, Procs: []int{8}, Refs: stressRefs,
		}},
		dir:     dir,
		workers: runtime.GOMAXPROCS(0),
	}
}

var execCycles = regexp.MustCompile(`exec=(\d+) cycles`)

func (c *campaignWorkload) rep(tr *tracer) (repOut, error) {
	state, err := os.MkdirTemp(c.dir, "campaign-")
	if err != nil {
		return repOut{}, err
	}
	defer os.RemoveAll(state)
	return c.runCampaign(tr, state)
}

// runCampaign runs the campaign once with state under root ("" runs
// volatile).
//
// A job's latency runs from its Config.JobRan call to the moment its
// completion event is taken off an event subscription. A worker
// publishes that event before it claims its next job, so the JobRan hook
// drains the subscription first and stamps each event microseconds after
// it was published, not whenever the benchmark's own goroutine next gets
// a CPU. The benchmark waits for the end on a second subscription, so it
// never takes a job event off the first one before a worker does; it
// stamps the events still queued there — each worker's last — when the
// campaign ends.
func (c *campaignWorkload) runCampaign(tr *tracer, root string) (repOut, error) {
	type stamped struct {
		line string
		at   time.Time
	}
	var (
		mu      sync.Mutex
		started = make(map[int]time.Time, stressTrials)
		ran     int
		events  <-chan string // the stamping subscription; nil until subscribed
		lines   []stamped
	)
	// drain stamps every queued event with at; mu is held.
	drain := func(at time.Time) {
		for events != nil {
			select {
			case line, ok := <-events:
				if !ok {
					events = nil
					return
				}
				lines = append(lines, stamped{line, at})
			default:
				return
			}
		}
	}
	cfg := campaign.Config{
		Root:     root,
		Parallel: c.workers,
		JobRan: func(_ string, job int) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			drain(now)
			ran++
			if _, ok := started[job]; !ok {
				started[job] = now
			}
		},
	}

	repSpan := tr.begin("rep", 0)
	t0 := time.Now()
	submit := tr.begin("campaign.submit", repSpan)
	m, err := campaign.Open(cfg)
	if err != nil {
		return repOut{}, fmt.Errorf("campaign.Open: %w", err)
	}
	defer m.Close()
	camp, err := m.Submit("perfbench", c.spec)
	if err != nil {
		return repOut{}, fmt.Errorf("campaign.Submit: %w", err)
	}
	history, sub, err := m.Subscribe(camp.ID)
	if err != nil {
		return repOut{}, err
	}
	_, end, err := m.Subscribe(camp.ID)
	if err != nil {
		return repOut{}, err
	}
	t1 := time.Now()
	tr.end(submit, nil)
	mu.Lock()
	for _, line := range history {
		lines = append(lines, stamped{line, t1})
	}
	events = sub
	mu.Unlock()

	for end != nil {
		select {
		case _, ok := <-end:
			if !ok {
				end = nil
			}
		case <-time.After(jobIdle):
			return repOut{}, fmt.Errorf("campaign: no job finished for %s", jobIdle)
		}
	}
	mu.Lock()
	drain(time.Now())
	mu.Unlock()
	t2 := time.Now()

	mu.Lock()
	defer mu.Unlock()
	ended := make(map[int]time.Time, stressTrials)
	state := ""
	for _, l := range lines {
		var ev struct {
			Job   int    `json:"job"`
			OK    bool   `json:"ok"`
			Fail  string `json:"fail"`
			Done  bool   `json:"done"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(l.line), &ev); err != nil {
			return repOut{}, fmt.Errorf("campaign event %q: %w", l.line, err)
		}
		switch {
		case ev.Done:
			state = ev.State
		case !ev.OK:
			return repOut{}, fmt.Errorf("campaign job %d failed: %s", ev.Job, ev.Fail)
		default:
			ended[ev.Job] = l.at
		}
	}
	if state != campaign.StateDone {
		return repOut{}, fmt.Errorf("campaign ended %q", state)
	}
	text, err := m.Result(camp.ID)
	if err != nil {
		return repOut{}, err
	}
	cycles, err := checkStressResult(text)
	if err != nil {
		return repOut{}, err
	}
	t3 := time.Now()
	tr.end(repSpan, nil)

	if len(ended) != stressTrials || len(started) != stressTrials {
		return repOut{}, fmt.Errorf("campaign: %d jobs started, %d finished, want %d", len(started), len(ended), stressTrials)
	}
	var jobs, waits []float64
	var busy float64
	for job := 0; job < stressTrials; job++ {
		end := ended[job]
		lat := end.Sub(started[job]).Seconds()
		jobs = append(jobs, lat)
		waits = append(waits, started[job].Sub(t1).Seconds())
		busy += lat
		tr.add("campaign.job", repSpan, started[job], end, map[string]float64{"job": float64(job)})
	}
	sum := sha256.Sum256([]byte(text))
	out := repOut{
		setup:     t1.Sub(t0).Seconds(),
		wall:      t3.Sub(t0).Seconds(),
		busy:      t2.Sub(t1).Seconds(),
		jobs:      jobs,
		cycles:    cycles,
		cycleSecs: busy,
		digest:    fmt.Sprintf("%x", sum[:8]),
	}
	if tr != nil {
		out.layer = map[string]float64{
			"campaign.queue_wait_s": median(waits),
			"campaign.job_run_s":    busy,
			"campaign.retries":      float64(ran - stressTrials),
			"runner.busy_frac":      busy / (float64(c.workers) * out.busy),
		}
	}
	return out, nil
}

// checkStressResult checks that every trial of the campaign ran clean —
// one summary line per trial and no violation, run error or coherence
// failure lines — and returns the simulated cycles summed over trials.
func checkStressResult(text string) (float64, error) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != stressTrials {
		return 0, fmt.Errorf("campaign result has %d lines, want one per trial (%d)", len(lines), stressTrials)
	}
	var cycles float64
	for _, l := range lines {
		m := execCycles.FindStringSubmatch(l)
		if !strings.HasPrefix(l, "trial ") || m == nil {
			return 0, fmt.Errorf("campaign result line is not a clean trial: %q", l)
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			return 0, err
		}
		cycles += float64(n)
	}
	return cycles, nil
}

// extras times the same campaign volatile (no journal, no checkpoints)
// against the traced durable repetitions.
func (c *campaignWorkload) extras(traced []repOut) (map[string]float64, error) {
	runtime.GC()
	vol, err := c.runCampaign(nil, "")
	if err != nil {
		return nil, fmt.Errorf("volatile campaign: %w", err)
	}
	var busy []float64
	for _, r := range traced {
		busy = append(busy, r.busy)
	}
	return map[string]float64{"campaign.durable_overhead_ratio": median(busy) / vol.busy}, nil
}
