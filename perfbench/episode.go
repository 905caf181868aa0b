package main

import (
	"runtime"
	"time"
)

// outcome is one episode of a workload: set-up, the measured request
// stream (the timed region) and the correctness checks after it.
type outcome struct {
	attempted uint64 // requests issued, retransmits excluded
	acked     uint64 // requests acknowledged in the measured stream
	inputs    uint64 // digest of every generated input
	setup     time.Duration
	host      time.Duration // timed region, checks excluded
	alloc     uint64        // bytes allocated in the timed region
	live      uint64        // live heap after a forced GC at its end
	// sim holds every simulated-clock metric and count. It is a pure
	// function of the seed and the episode size.
	sim map[string]float64
	tr  *tracer // nil unless traced
}

// stopwatch times the timed region on the host clock. Checks inside the
// region run between pause and resume so that their cost is excluded.
type stopwatch struct {
	start  time.Time
	paused time.Duration
	at     time.Time
	alloc0 uint64
}

func startWatch() *stopwatch {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &stopwatch{start: time.Now(), alloc0: ms.TotalAlloc}
}

func (w *stopwatch) pause()  { w.at = time.Now() }
func (w *stopwatch) resume() { w.paused += time.Since(w.at) }

// stop closes the timed region and records host time, allocation and the
// live heap into o.
func (w *stopwatch) stop(o *outcome) {
	o.host = time.Since(w.start) - w.paused
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - w.alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	o.live = ms.HeapAlloc
}
