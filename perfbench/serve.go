package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
	"zipflm/internal/trainer"
)

// serveSpec is one serving workload: a server configuration and a request
// stream. Both workloads serve the same model with the same batch size,
// caches and decoding options.
type serveSpec struct {
	quantized bool
	n         int
	// source builds the workload's request stream from the seed.
	source func(s serveSpec, seed uint64) requestSource
	// warmup is how many requests set-up sends to fill the caches.
	warmup int
	// rate is the open-loop arrival rate (requests/s) and sloMs the
	// per-request latency limit slo_ok_frac counts against.
	rate, sloMs float64
}

var serveModel = model.Config{Vocab: 4000, Dim: 96, Hidden: 192, RNN: model.KindLSTM}

// The server's batch size and its result and prefix cache sizes, and the
// decoding options of every request.
const (
	maxBatch      = 8
	cacheEntries  = 256
	prefixEntries = 128
)

var decodeOpts = sampling.DecodeOpts{Temperature: 0.8, TopK: 64}

var serveZipf = serveSpec{
	n: 24, source: newZipfSource, warmup: 640,
	rate: 100, sloMs: 50,
}

var serveUnique = serveSpec{
	quantized: true, n: 32, source: newUniqueSource, warmup: 8,
	rate: 10, sloMs: 150,
}

// The served model is trained for serveTrainSteps Adam steps during
// set-up, on a Zipf corpus of serveCorpusTokens made from the seed, so
// that its predictions carry what it learned and valid_loss rises when a
// kernel computes them wrong. An untrained model's loss sits at
// ln V ≈ 8.3 nats whatever its kernels return; these steps bring it to
// about 4.8.
const (
	serveTrainSteps   = 12
	serveCorpusTokens = 20_000
)

// clients is the closed loop's concurrency: two per batch slot, so a
// full batch is always waiting behind the one being stepped and the
// measured throughput is the server's saturated rate, not a function of
// how many clients happen to be between requests.
const clients = 16

// zipfPool is the number of distinct prompts serve-zipf draws from, and
// zipfVariants the seeds each prompt is sent with: a repeated prompt with
// a new seed misses the result cache but can hit the prefix cache.
const (
	zipfPool     = 1024
	zipfVariants = 2
	zipfS        = 1.1
)

type zipfSource struct {
	pool  [][]int
	zipf  *rng.Zipf
	r     *rng.RNG
	s     serveSpec
	seeds uint64
}

func newZipfSource(s serveSpec, seed uint64) requestSource {
	r := rng.New(seed)
	pool := make([][]int, zipfPool)
	for i := range pool {
		p := make([]int, 2+r.Intn(7))
		for j := range p {
			p[j] = 1 + r.Intn(serveModel.Vocab-1)
		}
		pool[i] = p
	}
	return &zipfSource{pool: pool, zipf: rng.NewZipf(rng.New(seed+1), zipfPool, zipfS),
		r: rng.New(seed + 2), s: s, seeds: seed * 0x9e3779b97f4a7c15}
}

func (z *zipfSource) next() serve.Request {
	rank := z.zipf.Next()
	v := z.r.Intn(zipfVariants)
	return serve.Request{Prompt: z.pool[rank], N: z.s.n, Opts: decodeOpts,
		Seed: z.seeds + uint64(rank*zipfVariants+v)}
}

type uniqueSource struct {
	r *rng.RNG
	s serveSpec
}

func newUniqueSource(s serveSpec, seed uint64) requestSource {
	return &uniqueSource{r: rng.New(seed), s: s}
}

// next draws a fresh 32–64-token prompt and seed: no two requests share a
// result-cache key, and the chance that two share a prompt is nil.
func (u *uniqueSource) next() serve.Request {
	p := make([]int, 32+u.r.Intn(33))
	for j := range p {
		p[j] = 1 + u.r.Intn(serveModel.Vocab-1)
	}
	return serve.Request{Prompt: p, N: u.s.n, Opts: decodeOpts, Seed: u.r.Uint64()}
}

// served is a running server with its request stream.
type served struct {
	m     *model.LM
	valid []int // held-out tokens of the corpus m was trained on
	srv   *serve.Server
	src   requestSource
	tr    *telemetry.Tracer // nil on an untraced run
	// warm is the server's counters and ready the time when set-up ended:
	// the per-layer serving figures count only what came after.
	warm  serve.Snapshot
	ready time.Time
}

// trainServed trains the served model from the seed and returns it with
// the corpus's held-out tokens.
func trainServed(seed uint64) (*model.LM, []int, error) {
	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize: serveModel.Vocab - 1, ZipfExponent: corpus.DefaultWordExponent, Seed: seed,
	})
	train, valid := corpus.Split(gen.Stream(serveCorpusTokens), 10, 100, seed+1)
	t, err := trainer.New(trainer.Config{
		Model: serveModel, Ranks: 1, BatchPerRank: 4, SeqLen: 20,
		LR: trainLR, BaseSeed: seed, Workers: 1,
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(1e-5) },
	}, train, valid)
	if err != nil {
		return nil, nil, err
	}
	if err := t.Steps(serveTrainSteps); err != nil {
		return nil, nil, err
	}
	return t.Model(0), valid, nil
}

// build trains the model, starts the server and fills the caches with
// warm-up traffic.
func (s serveSpec) build(seed uint64, tr *telemetry.Tracer) (*served, error) {
	m, valid, err := trainServed(seed)
	if err != nil {
		return nil, err
	}
	m.SetBackend(tensor.Serial{})
	srv := serve.New(m, serve.Config{
		Workers: 1, ComputeWorkers: 1, MaxBatch: maxBatch,
		CacheEntries: cacheEntries, PrefixEntries: prefixEntries,
		Quantized: s.quantized, Tracer: tr,
	})
	src := s.source(s, seed)
	// Warm-up goes in waves of one batch, each wave finishing before the
	// next starts, so the work it does, and the cache state it leaves, are
	// the same on every run with this seed.
	wave := make([]serve.Request, maxBatch)
	for sentN := 0; sentN < s.warmup; sentN += len(wave) {
		for i := range wave {
			wave[i] = src.next()
		}
		var wg sync.WaitGroup
		for _, req := range wave {
			wg.Add(1)
			go func(req serve.Request) {
				defer wg.Done()
				_, _ = srv.Submit(req) // outcomes are checked in the measured phases
			}(req)
		}
		wg.Wait()
	}
	return &served{m: m, valid: valid, srv: srv, src: src, tr: tr, warm: srv.Stats(), ready: time.Now()}, nil
}

// reference returns the replica sequential generation is checked against:
// the FP32 model, or its quantized copy when the server serves int8.
func (s serveSpec) reference(m *model.LM) *model.LM {
	if s.quantized {
		return m.Quantize()
	}
	return m
}

// loadRun is one closed-loop and one open-loop phase against a server.
type loadRun struct {
	closed, open *phase
}

func (s serveSpec) load(sv *served, seed uint64, closedFor, openFor time.Duration) loadRun {
	cl := closedLoop(sv.srv, sv.src, clients, closedFor, sv.tr)
	ol := openLoop(sv.srv, sv.src, poissonSchedule(seed^0x5eed, s.rate, openFor), sv.tr)
	return loadRun{closed: cl, open: ol}
}

func (l loadRun) counts() (sent, failed int) {
	for _, p := range []*phase{l.closed, l.open} {
		n, f := p.counts()
		sent += n
		failed += f
	}
	return
}

func (l loadRun) tokS() float64 {
	return float64(l.closed.tokens) / l.closed.wall.Seconds()
}

// putWall reports the wall-clock view of a load run: closed-loop
// throughput and open-loop latency. On a shared host these swing with the
// neighbours' load, so they are reported but not gated (see README.md).
func (s serveSpec) putWall(out *outcome, l loadRun) {
	lat := l.open.latenciesMs()
	out.put("serve.tok_s", l.tokS(), "tok/s")
	out.put("serve.latency_ms_p50", quantile(lat, 0.5), "ms")
	out.put("serve.latency_ms_p95", quantile(lat, 0.95), "ms")
	okFrac, lag := s.openStats(l.open)
	out.put("serve.slo_ok_frac", okFrac, "ratio")
	out.put("loadgen.lag_ms_p95", lag, "ms")
}

// verify checks served responses against sequential model.GenerateOpts
// for the same (prompt, N, options, seed), computing each distinct
// request's reference once; limit > 0 stops after that many distinct
// requests.
func (s serveSpec) verify(out *outcome, ref *model.LM, phases []*phase, limit int) {
	seen := map[string][]int{}
	for _, p := range phases {
		for _, r := range p.reqs {
			if r.err != nil {
				continue
			}
			key := fmt.Sprint(r.req.Prompt, r.req.N, r.req.Opts, r.req.Seed)
			want, ok := seen[key]
			if !ok {
				if limit > 0 && len(seen) >= limit {
					continue
				}
				want = ref.GenerateOpts(r.req.Prompt, r.req.N, r.req.Opts, rng.New(r.req.Seed))
				seen[key] = want
			}
			if !slices.Equal(r.res.Tokens, want) {
				out.fail("response for seed %d differs from sequential generation", r.req.Seed)
				return
			}
		}
	}
}

// servedLoss is the served replica's mean cross-entropy (nats/token) on
// the held-out tokens of its training corpus, computed through the serving
// path — Stepper and LogitsFor, int8 kernels included on a quantized
// replica — over maxBatch lanes stepped together.
func servedLoss(ref *model.LM, valid []int) float64 {
	laneLen := len(valid) / maxBatch
	lanes := make([][]int, maxBatch)
	for i := range lanes {
		lanes[i] = valid[i*laneLen : (i+1)*laneLen]
	}
	st := ref.NewStepper(maxBatch)
	states := make([]*model.GenState, maxBatch)
	for i := range states {
		states[i] = ref.NewGenState()
	}
	ids := make([]int, maxBatch)
	var sum float64
	var count int
	for t := 0; t+1 < laneLen; t++ {
		for i := range ids {
			ids[i] = lanes[i][t]
		}
		lg := st.Step(ids, states)
		for i := range ids {
			row := lg.Row(i)
			sum += logSumExp(row) - float64(row[lanes[i][t+1]])
			count++
		}
	}
	return sum / float64(count)
}

func logSumExp(x []float32) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		m = math.Max(m, float64(v))
	}
	var s float64
	for _, v := range x {
		s += math.Exp(float64(v) - m)
	}
	return m + math.Log(s)
}

// phaseSplit divides the measurement window between the closed loop and
// the open loop; the open loop gets more, since its latency percentiles
// need the samples.
func phaseSplit(d time.Duration) (closedFor, openFor time.Duration) {
	return d * 2 / 5, d * 3 / 5
}

// runServe is the untraced run: set-up timed several times, then the
// closed loop for the whole window, then a check of the first responses
// against sequential generation. The open loop's latencies are wall-clock
// figures, reported by the traced run.
func (s serveSpec) runServe(o options) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var sv *served
	for i := 0; i < setupRepeats; i++ {
		if sv != nil {
			sv.srv.Close()
		}
		sv = nil
		settle()
		c0 := cpuTime()
		var err error
		if sv, err = s.build(o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	defer sv.srv.Close()
	settle()
	heap := startHeapSampler(heapSampleEvery)
	lr := s.load(sv, o.seed, o.seconds, 0)
	peak := heap.Stop()

	sent, failed := lr.counts()
	out.attempted, out.failed = int64(sent), int64(failed)
	ref := s.reference(sv.m)
	s.verify(out, ref, []*phase{lr.closed}, 64)
	loss := servedLoss(ref, sv.valid)

	out.put("setup_s", median(setups), "s")
	out.put("peak_heap_mb", peak, "MiB")
	out.put("tok_per_cpu_s", median(lr.closed.rates), "tok/cpu-s")
	out.put("valid_loss", loss, "nats")
	out.put("serve.tok_s", lr.tokS(), "tok/s")
	return out, nil
}

// runServeTraced measures the per-layer metrics: the load phases once
// untraced and once with the server's tracer on, every traced response
// checked against sequential generation, then a direct probe of the
// model's step path with the timing backend.
func (s serveSpec) runServeTraced(o options) (*outcome, error) {
	out := newOutcome()
	cf, of := phaseSplit(o.seconds / 2)

	settle()
	plain, err := s.build(o.seed, nil)
	if err != nil {
		return nil, err
	}
	g0 := readGoCounters()
	base := s.load(plain, o.seed, cf, of)
	g1 := readGoCounters()
	baseSteps, _ := batchSteps(plain.srv.Stats(), plain.warm)
	plain.srv.Close()
	plain = nil
	sent, failed := base.counts()
	out.attempted, out.failed = int64(sent), int64(failed)
	allocKB, gcFrac := goDelta(g0, g1, baseSteps)

	settle()
	tr := telemetry.NewTracer(1 << 18)
	sv, err := s.build(o.seed, tr)
	if err != nil {
		return nil, err
	}
	lr := s.load(sv, o.seed, cf, of)
	stats, warm := sv.srv.Stats(), sv.warm
	sv.srv.Close()
	sent, failed = lr.counts()
	out.attempted += int64(sent)
	out.failed += int64(failed)
	ref := s.reference(sv.m)
	s.verify(out, ref, []*phase{lr.closed, lr.open}, 0)
	if tr.Dropped() > 0 {
		out.fail("trace truncated: %d events dropped", tr.Dropped())
	}
	if _, err := writeTrace(tr, o); err != nil {
		return nil, err
	}

	var queue, prefill []float64
	var decode float64
	var decodes int
	// Set-up's warm-up requests are left out, here and in the counters.
	since := sv.ready.Sub(tr.Start())
	for _, e := range tr.Events() {
		if e.Cat != "serve" || e.Phase != 'X' || e.TS < since {
			continue
		}
		switch e.Name {
		case "queue":
			queue = append(queue, ms(e.Dur))
		case "prefill":
			prefill = append(prefill, ms(e.Dur))
		case "decode":
			decode += ms(e.Dur)
			decodes++
		}
	}
	out.put("serve.queue_ms_p50", quantile(queue, 0.5), "ms")
	out.put("serve.queue_ms_p95", quantile(queue, 0.95), "ms")
	out.put("serve.prefill_ms_p50", quantile(prefill, 0.5), "ms")
	out.put("serve.decode_ms_per_token", safeDiv(decode, float64(decodes*s.n)), "ms")
	steps, seqSteps := batchSteps(stats, warm)
	out.put("serve.mean_batch", safeDiv(float64(seqSteps), float64(steps)), "count")
	hits, misses := stats.ResultHits-warm.ResultHits, stats.ResultMisses-warm.ResultMisses
	out.put("serve.result_hit_rate", safeDiv(float64(hits), float64(hits+misses)), "ratio")
	hits, misses = stats.PrefixHits-warm.PrefixHits, stats.PrefixMisses-warm.PrefixMisses
	out.put("serve.prefix_hit_rate", safeDiv(float64(hits), float64(hits+misses)), "ratio")
	out.put("serve.failed_frac", safeDiv(float64(out.failed), float64(out.attempted)), "ratio")
	s.putWall(out, base)
	out.put("go.alloc_kb_per_step", allocKB, "KiB")
	out.put("go.gc_cpu_frac", gcFrac, "ratio")
	out.put("trace.overhead_frac", base.tokS()/lr.tokS()-1, "ratio")

	s.probe(out, ref, o.seed)
	return out, nil
}

// openStats returns the share of open-loop requests that finished within
// the latency limit (a failure counts as a miss) and the generator's p95
// lateness.
func (s serveSpec) openStats(p *phase) (okFrac, lagP95 float64) {
	var ok int
	var lags []float64
	for _, r := range p.reqs {
		lags = append(lags, ms(r.lag))
		if r.err == nil && ms(r.latency) <= s.sloMs {
			ok++
		}
	}
	return safeDiv(float64(ok), float64(len(p.reqs))), quantile(lags, 0.95)
}

// batchSteps returns the model steps the server ran since the snapshot
// from, and the sequence-steps they carried.
func batchSteps(st, from serve.Snapshot) (steps, seqSteps int) {
	for b, c := range st.BatchDist {
		if b < len(from.BatchDist) {
			c -= from.BatchDist[b]
		}
		steps += int(c)
		seqSteps += b * int(c)
	}
	return steps, seqSteps
}

// probeIters is how many steps the direct probe times at each batch size.
const probeIters = 200

// probe times the serving step path directly on a copy of the served
// replica with the timing backend installed: StepCells, LogitsFor and
// Decoder.Sample at MaxBatch, plus the same step at batch 1 (the path a
// lone sequence takes, which on an int8 replica is the matrix-vector
// kernel). Kernel metrics are per pair of steps, one at each size.
func (s serveSpec) probe(out *outcome, ref *model.LM, seed uint64) {
	// Time a copy, so the reference keeps its own backend.
	m := model.NewLM(ref.Cfg)
	m.CopyWeightsFrom(ref)
	if s.quantized {
		m.QuantizeWeights()
	}
	be := newTimedBackend(tensor.Serial{}, []*model.LM{m})
	m.SetBackend(be)
	r := rng.New(seed ^ 0x9806e)
	dec := sampling.NewDecoder(serveModel.Vocab)
	var cellsNs, logitsNs, sampleNs, stepNs time.Duration
	for _, b := range []int{maxBatch, 1} {
		st := m.NewStepper(b)
		h := tensor.NewMatrix(b, serveModel.Hidden)
		states := make([]*model.GenState, b)
		ids := make([]int, b)
		for i := range states {
			states[i] = m.NewGenState()
			ids[i] = 1 + r.Intn(serveModel.Vocab-1)
		}
		for it := 0; it < probeIters; it++ {
			t0 := time.Now()
			st.StepCells(ids, states, h, 0)
			t1 := time.Now()
			lg := st.LogitsFor(h)
			t2 := time.Now()
			for i := range ids {
				ids[i] = dec.Sample(lg.Row(i), decodeOpts, r)
			}
			t3 := time.Now()
			stepNs += t2.Sub(t0)
			if b == maxBatch {
				cellsNs += t1.Sub(t0)
				logitsNs += t2.Sub(t1)
				sampleNs += t3.Sub(t2)
			}
		}
	}
	us := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
	out.put("model.step_cells_us", us(cellsNs, probeIters), "us")
	out.put("model.logits_us", us(logitsNs, probeIters), "us")
	out.put("sampling.decode_sample_us", us(sampleNs, probeIters*maxBatch), "us")
	putKernels(out, be, probeIters)
	_, kernNs, _, _ := be.totals(-1, -1)
	out.put("model.other.ms", float64(int64(stepNs)-kernNs)/1e6/probeIters, "ms")
}
