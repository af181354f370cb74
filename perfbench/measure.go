package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// runtimeCounters is a reading of the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes, allocObjs, gcCycles float64
	gcPause                         float64 // seconds of stop-the-world GC pauses
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		allocObjs:  float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		gcPause:    float64(ms.PauseTotalNs) / 1e9,
	}
}

// allocatedBytes returns the bytes allocated since the process started.
func allocatedBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveSampleEvery is the live-heap sampler's period, short next to the
// time between GC cycles so that nearly every cycle's reading is seen.
const liveSampleEvery = 2 * time.Millisecond

// readLive returns the heap bytes the last GC cycle marked live.
func readLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleLive starts recording the live heap each GC cycle leaves and
// returns a function that stops the recorder, waits for it, and returns
// one reading per cycle it saw complete.
func sampleLive() (stop func() []float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	last := s[0].Value.Uint64()
	done := make(chan struct{})
	livec := make(chan []float64)
	go func() {
		var live []float64
		poll := func() {
			metrics.Read(s)
			if n := s[0].Value.Uint64(); n != last {
				last = n
				live = append(live, float64(s[1].Value.Uint64()))
			}
		}
		t := time.NewTicker(liveSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				poll()
			case <-done:
				poll()
				livec <- live
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-livec
	}
}

// liveAt forces a GC with retain still reachable and returns the live
// heap it marked: the heap a repetition holds at its result, which no GC
// cycle of the repetition may have seen (a machine built after the last
// cycle).
func liveAt(retain any) uint64 {
	runtime.GC()
	live := readLive()
	runtime.KeepAlive(retain)
	return live
}
