package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names read at the window edges and by the sampler.
const (
	rmLiveHeap   = "/gc/heap/live:bytes"
	rmAllocs     = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmGoroutines = "/sched/goroutines:goroutines"
)

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// window measures the process across one measured interval: CPU time,
// allocation, GC CPU share, and — by sampling every few milliseconds —
// the highest live heap and goroutine count.
type window struct {
	start   time.Time
	cpu0    time.Duration
	alloc0  float64
	gc0     float64
	total0  float64
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	heapMax float64
	gorMax  float64
}

// windowStats is what a window measured.
type windowStats struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes float64
	gcCPUPct   float64
	heapPeakMB float64
	goroutines float64
}

func beginWindow() *window {
	s := readRuntime(rmAllocs, rmGCCPU, rmTotalCPU)
	w := &window{
		start:  time.Now(),
		cpu0:   cpuTime(),
		alloc0: sampleFloat(s[0]),
		gc0:    sampleFloat(s[1]),
		total0: sampleFloat(s[2]),
		stop:   make(chan struct{}),
	}
	w.sample()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *window) sample() {
	s := readRuntime(rmLiveHeap, rmGoroutines)
	w.mu.Lock()
	w.heapMax = max(w.heapMax, sampleFloat(s[0]))
	w.gorMax = max(w.gorMax, sampleFloat(s[1]))
	w.mu.Unlock()
}

func (w *window) end() windowStats {
	close(w.stop)
	w.wg.Wait()
	w.sample()
	s := readRuntime(rmAllocs, rmGCCPU, rmTotalCPU)
	return windowStats{
		wall:       time.Since(w.start),
		cpu:        cpuTime() - w.cpu0,
		allocBytes: sampleFloat(s[0]) - w.alloc0,
		gcCPUPct:   100 * ratio(sampleFloat(s[1])-w.gc0, sampleFloat(s[2])-w.total0),
		heapPeakMB: w.heapMax / (1 << 20),
		goroutines: w.gorMax,
	}
}

// burstSpans groups event times into bursts separated by more than gap
// and returns each burst's first-to-last span in milliseconds. A scan
// reads all its devices concurrently, so one scan is one burst of reads.
func burstSpans(times []time.Time, gap time.Duration) []float64 {
	if len(times) == 0 {
		return nil
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	var out []float64
	first, last := times[0], times[0]
	for _, t := range times[1:] {
		if t.Sub(last) > gap {
			out = append(out, ms(last.Sub(first)))
			first = t
		}
		last = t
	}
	return append(out, ms(last.Sub(first)))
}
