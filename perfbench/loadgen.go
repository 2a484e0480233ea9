package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"zipflm/internal/rng"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
)

// requestSource hands out the workload's requests in a fixed order: the
// i-th request depends only on the workload seed and i, whichever client
// asks for it.
type requestSource interface {
	next() serve.Request
}

// sent is one request the load generator issued and what came back.
type sent struct {
	req serve.Request
	res *serve.Result
	err error
	// latency is completion minus the request's due time (open loop) or
	// its send time (closed loop); lag is send minus due (open loop).
	latency, lag time.Duration
}

// phase collects the requests of one load phase.
type phase struct {
	mu     sync.Mutex
	reqs   []sent
	tokens int // delivered by the requests in reqs
	wall   time.Duration
	// rates is the closed loop's delivered tokens per CPU-second in each
	// rateWindow of the phase.
	rates []float64
}

func (p *phase) add(s sent) {
	p.mu.Lock()
	p.reqs = append(p.reqs, s)
	if s.err == nil {
		p.tokens += len(s.res.Tokens)
	}
	p.mu.Unlock()
}

func (p *phase) tokensSoFar() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tokens
}

// rateWindow is the interval the closed loop's throughput is sampled
// over; reporting the median window makes the figure robust to a burst of
// load from other tenants of a shared host.
const rateWindow = time.Second

// counts returns how many requests the phase sent and how many failed.
func (p *phase) counts() (n, failed int) {
	for _, s := range p.reqs {
		if s.err != nil {
			failed++
		}
	}
	return len(p.reqs), failed
}

// latenciesMs returns the latencies of the requests that succeeded.
func (p *phase) latenciesMs() []float64 {
	var out []float64
	for _, s := range p.reqs {
		if s.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// closedLoop runs `clients` callers that each send their next request only
// when the previous one returns, until d has passed; requests in flight at
// the end are allowed to finish and count. Each request is recorded as a
// span (cat "bench", tid = client) when tr is not nil.
func closedLoop(srv *serve.Server, src requestSource, clients int, d time.Duration, tr *telemetry.Tracer) *phase {
	p := &phase{}
	var srcMu sync.Mutex
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				srcMu.Lock()
				req := src.next()
				srcMu.Unlock()
				t0 := time.Now()
				res, err := srv.Submit(req)
				lat := time.Since(t0)
				tr.Span("bench", "request", c, t0, lat, 0, 0)
				p.add(sent{req: req, res: res, err: err, latency: lat})
			}
		}(c)
	}
	tick := time.NewTicker(rateWindow)
	lastTok, lastCPU := 0, cpuTime()
	for now := range tick.C {
		tok, cpu := p.tokensSoFar(), cpuTime()
		p.rates = append(p.rates, float64(tok-lastTok)/(cpu-lastCPU).Seconds())
		lastTok, lastCPU = tok, cpu
		if !now.Before(end.Add(-rateWindow / 2)) {
			break
		}
	}
	tick.Stop()
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// poissonSchedule returns arrival offsets of a Poisson process at rate
// per second over d, drawn from seed.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := rng.New(seed)
	var out []time.Duration
	t := 0.0
	for {
		// Exponential gaps; 1-U keeps the argument of Log in (0, 1].
		t += -math.Log(1-r.Float64()) / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// maxInFlight bounds the open loop's concurrent requests. At the rates the
// workloads use it is never reached; if the server stalls, the generator
// waits rather than piling up goroutines, and the wait shows as lag.
const maxInFlight = 256

// spinWindow is how long before a due time the generator stops sleeping and
// yields in a loop instead: the runtime's timer wakes an idle process up
// to a millisecond late, which would otherwise dominate the latency of a
// cache hit.
const spinWindow = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openLoop sends one request at each scheduled offset regardless of how
// earlier ones fare, timing each from its due time, then waits for all of
// them to finish. Each request is recorded as a span from its due time
// (cat "bench", tid = its index in the schedule) when tr is not nil.
func openLoop(srv *serve.Server, src requestSource, schedule []time.Duration, tr *telemetry.Tracer) *phase {
	p := &phase{}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range schedule {
		due := start.Add(off)
		tid := i
		req := src.next()
		waitUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sentAt := time.Now()
			res, err := srv.Submit(req)
			lat := time.Since(due)
			tr.Span("bench", "request", tid, due, lat, 0, 0)
			p.add(sent{req: req, res: res, err: err, latency: lat, lag: sentAt.Sub(due)})
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}
