package collective

import (
	"testing"

	"zipflm/internal/half"
)

// allocHarness drives one collective round per trigger on persistent rank
// goroutines, so testing.AllocsPerRun measures only the collective itself
// and not goroutine spawning.
type allocHarness struct {
	start []chan struct{}
	done  chan struct{}
	stop  chan struct{}
}

func newAllocHarness(g int, op func(rank int)) *allocHarness {
	h := &allocHarness{
		start: make([]chan struct{}, g),
		done:  make(chan struct{}, g),
		stop:  make(chan struct{}),
	}
	for r := 0; r < g; r++ {
		h.start[r] = make(chan struct{})
		go func(rank int) {
			for {
				select {
				case <-h.start[rank]:
					op(rank)
					h.done <- struct{}{}
				case <-h.stop:
					return
				}
			}
		}(r)
	}
	return h
}

// round triggers one collective on every rank and waits for completion.
func (h *allocHarness) round() {
	for _, ch := range h.start {
		ch <- struct{}{}
	}
	for range h.start {
		<-h.done
	}
}

func (h *allocHarness) close() { close(h.stop) }

// skipIfRace skips allocation guards under -race: the detector's
// instrumentation allocates.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
}

// TestAllReduceZeroAllocSteadyState is the allocation-regression guard on
// the pooled ring path: once the hop-buffer arena is warm, a full ring
// all-reduce across all ranks performs zero heap allocations. A future PR
// reintroducing per-hop payload allocation fails here immediately.
func TestAllReduceZeroAllocSteadyState(t *testing.T) {
	skipIfRace(t)
	for _, wire := range []Wire{nil, half.NewScaler(256)} {
		g := 4
		c := New(g)
		xs := make([][]float32, g)
		for r := range xs {
			xs[r] = make([]float32, 1000)
			for i := range xs[r] {
				xs[r][i] = float32(r + i)
			}
		}
		h := newAllocHarness(g, func(rank int) {
			c.AllReduce(rank, xs[rank], wire)
		})
		for i := 0; i < 3; i++ {
			h.round() // warm the arena
		}
		allocs := testing.AllocsPerRun(20, h.round)
		h.close()
		if allocs != 0 {
			t.Errorf("wire=%v: AllReduce ring path allocates %.1f objects per round, want 0", wire != nil, allocs)
		}
	}
}

// allocCase is one blackboard op under an allocation guard: perRank is the
// number of caller-owned result allocations each rank may make per round.
type allocCase struct {
	name    string
	perRank float64
	op      func(c *Comm, rank int)
}

// checkAllocBound runs each case on a fresh g-rank Comm: once each rank's
// stash buffer is warm, a round may allocate the caller-owned result copies
// and nothing else.
func checkAllocBound(t *testing.T, g int, cases []allocCase) {
	t.Helper()
	skipIfRace(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(g)
			h := newAllocHarness(g, func(rank int) { tc.op(c, rank) })
			defer h.close()
			for i := 0; i < 3; i++ {
				h.round()
			}
			if allocs, limit := testing.AllocsPerRun(20, h.round), tc.perRank*float64(g); allocs > limit {
				t.Errorf("%s allocates %.1f objects per round, want ≤ %.0f (result copies only)", tc.name, allocs, limit)
			}
		})
	}
}

// TestAllGatherIntsAllocBound: the only permitted allocations are the
// caller-owned result, one outer slice plus one backing array per rank.
func TestAllGatherIntsAllocBound(t *testing.T) {
	const g = 4
	ints := make([][]int, g)
	for r := range ints {
		ints[r] = make([]int, 50+r)
	}
	checkAllocBound(t, g, []allocCase{
		{"AllGatherInts", 2, func(c *Comm, rank int) { c.AllGatherInts(rank, ints[rank]) }},
	})
}

// TestAllGatherFloatsAllocBound: peers' blocks are handed out as views, so
// a round allocates nothing, FP16 wire included (RoundTrip stays in place).
func TestAllGatherFloatsAllocBound(t *testing.T) {
	const g = 4
	floats := make([][]float32, g)
	for r := range floats {
		floats[r] = make([]float32, 200+r)
	}
	fp16 := half.NewScaler(256)
	checkAllocBound(t, g, []allocCase{
		{"fp32", 0, func(c *Comm, rank int) {
			c.AllGatherFloats(rank, floats[rank], nil, func([][]float32) {})
		}},
		{"fp16", 0, func(c *Comm, rank int) {
			c.AllGatherFloats(rank, floats[rank], fp16, func([][]float32) {})
		}},
	})
}

// TestBroadcastAllocBound: the root stash is pooled; each rank may allocate
// only its copy of the root's payload.
func TestBroadcastAllocBound(t *testing.T) {
	const g = 4
	ints := make([][]int, g)
	floats := make([][]float32, g)
	for r := 0; r < g; r++ {
		ints[r] = make([]int, 50+r)
		floats[r] = make([]float32, 300+r)
	}
	checkAllocBound(t, g, []allocCase{
		{"BroadcastInts", 1, func(c *Comm, rank int) { c.BroadcastInts(rank, 1, ints[rank]) }},
		{"BroadcastFloatsVar", 1, func(c *Comm, rank int) { c.BroadcastFloatsVar(rank, 1, floats[rank]) }},
	})
}

// TestBlackboardAllocBound guards the remaining blackboard ops, which
// allocate nothing at steady state: the compressed all-reduce decodes from
// views and the vote returns a bool.
func TestBlackboardAllocBound(t *testing.T) {
	const g = 4
	dst := make([][]float32, g)
	payloads := make([][]byte, g)
	for r := 0; r < g; r++ {
		dst[r] = make([]float32, 8)
		payloads[r] = encodePairs(map[int]float32{r: 1, 7: 2}, []int{r, 7})
	}
	checkAllocBound(t, g, []allocCase{
		{"AllReduceCompressed", 0, func(c *Comm, rank int) {
			if err := c.AllReduceCompressed(rank, dst[rank], payloads[rank], rawF32Decoder{}); err != nil {
				t.Error(err)
			}
		}},
		{"AgreeAllOK", 0, func(c *Comm, rank int) { c.AgreeAllOK(rank, true) }},
	})
}
