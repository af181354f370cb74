package main

import (
	"time"

	"dircoh/internal/cache"
	"dircoh/internal/machine"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
	"dircoh/internal/tango"
)

// The layer drivers replay a workload's own inputs through one layer's
// public API, so a change to that layer shows in its own ns/op without
// the rest of the machine around it.

// cacheDriver replays each processor's reference stream through a
// private cache hierarchy of the machine's geometry, filling on every
// miss, and returns nanoseconds per Access (fills included, hierarchy
// construction excluded).
func cacheDriver(cfg machine.Config, w *tango.Workload) (float64, error) {
	cc := cfg.Cache
	cc.Block = cfg.Block
	if err := cc.Validate(); err != nil {
		return 0, err
	}
	var n int
	var busy time.Duration
	for _, refs := range w.Streams {
		h := cache.NewHierarchy(cc)
		start := time.Now()
		for i, r := range refs {
			if r.Op.IsSync() {
				continue
			}
			b, now := r.Addr/int64(cfg.Block), uint64(i)
			write := r.Op == tango.Write
			switch h.Access(b, write, now) {
			case cache.Miss:
				st := cache.Shared
				if write {
					st = cache.Dirty
				}
				h.Fill(b, st, now)
			case cache.MissUpgrade:
				h.Upgrade(b, now)
			}
			n++
		}
		busy += time.Since(start)
	}
	return ratio(float64(busy.Nanoseconds()), float64(n)), nil
}

// sparseDriver replays the block stream, interleaved round-robin across
// processors, against one sparse directory per home cluster: Lookup, and
// Allocate on a miss. A sparse machine's directories keep its geometry
// and policy; for a full-map machine each directory is sized to hold
// every block homed there. It returns nanoseconds per Lookup or
// Allocate.
func sparseDriver(cfg machine.Config, w *tango.Workload) (float64, error) {
	clusters := cfg.Clusters()
	scheme, err := cfg.Scheme(clusters)
	if err != nil {
		return 0, err
	}
	home := func(addr int64) (int, int64) {
		b := addr / int64(cfg.Block)
		return int(uint64(b) % uint64(clusters)), b / int64(clusters)
	}
	sc := sparse.Config{Scheme: scheme, Entries: cfg.Sparse.Entries, Assoc: cfg.Sparse.Assoc,
		Policy: cfg.Sparse.Policy, Seed: cfg.Seed}
	if sc.Entries == 0 {
		homed := make([]map[int64]bool, clusters)
		for _, refs := range w.Streams {
			for _, r := range refs {
				h, key := home(r.Addr)
				if homed[h] == nil {
					homed[h] = map[int64]bool{}
				}
				homed[h][key] = true
			}
		}
		for _, keys := range homed {
			sc.Entries = max(sc.Entries, len(keys))
		}
		sc.Assoc, sc.Policy = 4, sparse.LRU
	}
	dirs := make([]*sparse.Sparse, clusters)
	for i := range dirs {
		dirs[i] = sparse.New(sc)
	}
	longest := 0
	for _, refs := range w.Streams {
		longest = max(longest, len(refs))
	}
	ops := 0
	start := time.Now()
	for i := 0; i < longest; i++ {
		for _, refs := range w.Streams {
			if i >= len(refs) {
				continue
			}
			h, key := home(refs[i].Addr)
			now := uint64(ops)
			ops++
			if dirs[h].Lookup(key, now) == nil {
				dirs[h].Allocate(key, now)
				ops++
			}
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(ops)), nil
}

// simDriver fires events events through the machine's default event
// scheduler (sim.Engine) with pending events in flight, each event
// scheduling its successor a pseudo-random 1-64 cycles ahead, and
// returns nanoseconds per event.
func simDriver(pending int, events uint64) float64 {
	var e sim.Engine
	x := uint64(88172645463325252) // xorshift state
	var scheduled uint64
	var fire sim.Event
	fire = func() {
		if scheduled < events {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			e.At(e.Now()+1+x%64, fire)
			scheduled++
		}
	}
	start := time.Now()
	for i := 0; i < pending && scheduled < events; i++ {
		e.At(sim.Time(i), fire)
		scheduled++
	}
	e.Run()
	return ratio(float64(time.Since(start).Nanoseconds()), float64(e.Fired()))
}
