package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime returns the process's user plus system CPU time. Unlike wall
// time it excludes the intervals a shared host's hypervisor runs other
// guests on this one's cores, so work measured in CPU time holds steady
// while neighbours come and go.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the largest live heap (the bytes the last garbage
// collection marked live, runtime/metrics) seen while it runs; Go keeps no
// high-water mark itself. The live heap, unlike the heap in use, leaves
// out the garbage awaiting the next collection, whose amount depends on
// when the collector happened to run.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readHeap()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB. It collects garbage
// first, so the figure includes what the run still holds at its end, such
// as caches that filled during it, whether or not the collector happened
// to run after they filled.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	runtime.GC()
	if v := readHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// goCounters snapshots the allocation and GC CPU counters the per-layer
// go.* metrics difference.
type goCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// goDelta reports allocation per unit of work (KiB) and the share of CPU
// time the garbage collector took between two snapshots.
func goDelta(a, b goCounters, units int) (allocKB, gcFrac float64) {
	if units > 0 {
		allocKB = float64(b.allocBytes-a.allocBytes) / 1024 / float64(units)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return allocKB, gcFrac
}

// settle collects garbage left by earlier set-ups so one phase's heap does
// not count against the next.
func settle() {
	runtime.GC()
	runtime.GC()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
