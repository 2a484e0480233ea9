package main

import (
	"hash/fnv"
	"math"
	"strings"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/traceview"
	"zipflm/internal/trainer"
)

// trainSpec is one training workload.
type trainSpec struct {
	model                model.Config
	ranks, batch, seqLen int
	// zipfS is the corpus's rank-frequency exponent; corpusTokens its
	// length before the 1-in-validRatio validation split.
	zipfS        float64
	corpusTokens int
	validRatio   int
	fp16         bool
	overlap      bool
	// virtualClock prices every step on perfmodel.TitanX at 40% of peak.
	virtualClock bool
	ckptEvery    int
}

var trainWord = trainSpec{
	model: model.Config{Vocab: 20000, Dim: 64, Hidden: 128, RNN: model.KindLSTM, Sampled: 256},
	ranks: 8, batch: 4, seqLen: 20,
	zipfS:        corpus.DefaultWordExponent,
	corpusTokens: 400_000, validRatio: 400,
	fp16:         true,
	virtualClock: true,
	ckptEvery:    20,
}

var trainChar = trainSpec{
	model: model.Config{Vocab: 100, Dim: 32, Hidden: 256, RNN: model.KindLSTM},
	ranks: 2, batch: 4, seqLen: 32,
	zipfS:        1.0,
	corpusTokens: 200_000, validRatio: 100,
	overlap: true,
}

// Both training workloads use Adam at trainLR, run trainWarmup steps
// during set-up, and take valid_loss after global step validAt.
const (
	trainLR     = 0.01
	trainWarmup = 2
	validAt     = 42
)

// simFLOPsPerStep is the analytic per-rank forward+backward work of one
// step: 2 FLOPs per multiply-add, backward twice the forward, over B·T
// tokens of the LSTM's 4H(D+H) gate products, the H→D projection and the
// D-wide logits against the S sampled-softmax candidates. Only train-word,
// which samples, runs on the virtual clock.
func (s trainSpec) simFLOPsPerStep() float64 {
	d, h, cand := float64(s.model.Dim), float64(s.model.Hidden), float64(s.model.Sampled)
	return 6 * float64(s.batch*s.seqLen) * (4*h*(d+h) + h*d + cand*d)
}

func (s trainSpec) tokensPerStep() int { return s.ranks * s.batch * s.seqLen }

// data generates the workload's corpus: ids 1..V-1 (0 is <unk>), split
// into training and validation blocks.
func (s trainSpec) data(seed uint64) (train, valid []int) {
	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize: s.model.Vocab - 1, ZipfExponent: s.zipfS, Seed: seed,
	})
	return corpus.Split(gen.Stream(s.corpusTokens), s.validRatio, 100, seed+1)
}

// trainProbe holds the timing wrappers of a traced run.
type trainProbe struct {
	tr  *telemetry.Tracer
	be  *timedBackend
	ex  *timedExchanger
	opt *spanTimer
	smp *spanTimer
}

// build constructs the trainer and runs its warm-up steps. With a probe,
// every injection point is wrapped and the run is traced.
func (s trainSpec) build(seed uint64, probe *trainProbe) (*trainer.Trainer, error) {
	train, valid := s.data(seed)
	cfg := trainer.Config{
		Model: s.model, Ranks: s.ranks, BatchPerRank: s.batch, SeqLen: s.seqLen,
		LR: trainLR, Exchange: core.UniqueExchange{}, SeedStrategy: sampling.ZipfFreq,
		BaseSeed: seed, Workers: 1, Overlap: s.overlap, CheckpointEvery: s.ckptEvery,
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(1e-5) },
	}
	if s.fp16 {
		cfg.Wire = half.NewScaler(512)
	}
	if s.virtualClock {
		hw := perfmodel.TitanX()
		cfg.Hardware = &hw
		cfg.SimFLOPsPerStep = s.simFLOPsPerStep()
		cfg.SimAchievedFrac = 0.40
	}
	if probe != nil {
		probe.ex = newTimedExchanger(cfg.Exchange, s.ranks, s.model.Sampled > 0, probe.tr)
		cfg.Exchange = probe.ex
		probe.opt = &spanTimer{tr: probe.tr, name: "optimizer"}
		cfg.NewOptimizer = timedOptimizers(probe.opt, cfg.NewOptimizer)
		probe.smp = &spanTimer{tr: probe.tr, name: "sample"}
		cfg.NewSampler = timedSamplers(probe.smp, defaultSampler)
		cfg.Trace = probe.tr
	}
	t, err := trainer.New(cfg, train, valid)
	if err != nil {
		return nil, err
	}
	if probe != nil {
		models := make([]*model.LM, s.ranks)
		for r := range models {
			models[r] = t.Model(r)
		}
		probe.be = newTimedBackend(models[0].Backend(), models)
		for _, m := range models {
			m.SetBackend(probe.be)
		}
	}
	if err := t.Steps(trainWarmup); err != nil {
		return nil, err
	}
	return t, nil
}

// validate measures validation loss outside the probe: the evaluation
// pass runs on rank 0's replica, so its kernels are routed around the
// timing backend and do not count as training work.
func validate(t *trainer.Trainer) float64 {
	m := t.Model(0)
	be := m.Backend()
	if tb, ok := be.(*timedBackend); ok {
		m.SetBackend(tb.inner)
		defer m.SetBackend(tb)
	}
	return t.Validate()
}

// trainRun is what one measured stretch of training produced.
type trainRun struct {
	steps     []time.Duration // wall time of each timed step
	cpu       []time.Duration // process CPU time of each timed step
	validLoss float64
	checksum  uint64 // of rank 0's parameters after the last step
}

// runSteps trains one step at a time until d has passed and at least the
// step after which valid_loss is taken has run, or exactly n steps when
// n > 0.
func (s trainSpec) runSteps(t *trainer.Trainer, d time.Duration, n int) (trainRun, error) {
	var run trainRun
	run.validLoss = math.NaN()
	start := time.Now()
	for {
		if n > 0 && len(run.steps) == n {
			break
		}
		if n <= 0 && time.Since(start) >= d && t.Step() >= validAt {
			break
		}
		t0, c0 := time.Now(), cpuTime()
		if err := t.Steps(1); err != nil {
			return run, err
		}
		run.steps = append(run.steps, time.Since(t0))
		run.cpu = append(run.cpu, cpuTime()-c0)
		if t.Step() == validAt {
			run.validLoss = validate(t)
		}
	}
	run.checksum = paramChecksum(t.Model(0))
	return run, nil
}

// paramChecksum hashes every parameter bit of a replica.
func paramChecksum(m *model.LM) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(xs []float32) {
		for _, x := range xs {
			b := math.Float32bits(x)
			buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
			h.Write(buf[:])
		}
	}
	put(m.InEmb.Data)
	put(m.OutEmb.Data)
	for _, p := range m.DenseParams() {
		put(p.Value)
	}
	return h.Sum64()
}

// in converts durations to floats counting the given unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// runTrain is the untraced run: set-up timed several times, then steps for
// the measurement window.
func (s trainSpec) runTrain(o options) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var t *trainer.Trainer
	for i := 0; i < setupRepeats; i++ {
		t = nil // let the previous set-up's trainer be collected first
		settle()
		c0 := cpuTime()
		var err error
		if t, err = s.build(o.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	settle()
	heap := startHeapSampler(heapSampleEvery)
	run, err := s.runSteps(t, o.seconds, 0)
	peak := heap.Stop()
	out.attempted = int64(len(run.steps))
	if err != nil {
		out.failed++
		out.fail("training step: %v", err)
	}
	s.checkReplicas(out, t, run)

	out.put("setup_s", median(setups), "s")
	out.put("peak_heap_mb", peak, "MiB")
	// Every step's CPU time counts, so a cost paid on a few steps only, such
	// as checkpoint capture, moves the figure as much as it costs.
	out.put("tok_per_cpu_s", float64(len(run.cpu)*s.tokensPerStep())/sumDur(run.cpu).Seconds(), "tok/cpu-s")
	out.put("valid_loss", run.validLoss, "nats")
	s.putWall(out, run)
	return out, nil
}

// putWall reports the wall-clock view of a run: throughput and the step
// time median and tail. On a shared host these swing with the neighbours'
// load, so they are reported but not gated (see README.md).
func (s trainSpec) putWall(out *outcome, run trainRun) {
	lat := in(time.Millisecond, run.steps)
	out.put("train.step_ms_p50", quantile(lat, 0.5), "ms")
	out.put("train.step_ms_p90", quantile(lat, 0.9), "ms")
	out.put("train.tok_s", float64(len(run.steps)*s.tokensPerStep())/sumDur(run.steps).Seconds(), "tok/s")
}

func (s trainSpec) checkReplicas(out *outcome, t *trainer.Trainer, run trainRun) {
	if err := t.ReplicasInSync(); err != nil {
		out.fail("replicas out of sync: %v", err)
	}
	if math.IsNaN(run.validLoss) || math.IsInf(run.validLoss, 0) {
		out.fail("valid_loss is not finite: %v", run.validLoss)
	}
}

// runTrainTraced measures the per-layer metrics: an untraced run of n
// steps, then the same n steps again from the same seed with every timing
// wrapper installed and the tracer on. The two must agree bit for bit.
func (s trainSpec) runTrainTraced(o options) (*outcome, error) {
	out := newOutcome()

	settle()
	plain, err := s.build(o.seed, nil)
	if err != nil {
		return nil, err
	}
	g0 := readGoCounters()
	base, err := s.runSteps(plain, o.seconds/2, 0)
	g1 := readGoCounters()
	out.attempted += int64(len(base.steps))
	if err != nil {
		out.failed++
		out.fail("training step: %v", err)
		return out, nil
	}
	s.checkReplicas(out, plain, base)
	allocKB, gcFrac := goDelta(g0, g1, len(base.steps))
	s.putWall(out, base)
	plain = nil

	settle()
	probe := &trainProbe{tr: telemetry.NewTracer(1 << 18)}
	t, err := s.build(o.seed, probe)
	if err != nil {
		return nil, err
	}
	traced, err := s.runSteps(t, 0, len(base.steps))
	out.attempted += int64(len(traced.steps))
	if err != nil {
		out.failed++
		out.fail("traced training step: %v", err)
		return out, nil
	}
	s.checkReplicas(out, t, traced)
	if math.Float64bits(traced.validLoss) != math.Float64bits(base.validLoss) {
		out.fail("valid_loss differs between traced (%v) and untraced (%v) runs", traced.validLoss, base.validLoss)
	}
	if traced.checksum != base.checksum {
		out.fail("traced run's parameters differ from the untraced run's")
	}

	path, err := writeTrace(probe.tr, o)
	if err != nil {
		return nil, err
	}
	tv, err := traceview.ParseFile(path)
	if err != nil {
		return nil, err
	}
	an := traceview.Analyze(tv)
	if an.Truncated {
		out.fail("trace truncated: %d events dropped", an.Dropped)
	}

	steps := float64(t.Step())
	perStep := func(nanos int64) float64 { return float64(nanos) / 1e6 / steps }
	putKernels(out, probe.be, steps)

	// Rank compute spans (wall) split into kernel, sampler and the rest.
	var rankCompute float64
	computeByRank := map[int][]float64{}
	var stepCompute, stepSync, ckpt []float64
	for _, sp := range tv.Spans {
		switch {
		case sp.Cat == "rank" && sp.Name == "compute":
			rankCompute += sp.Dur / 1e3
			computeByRank[sp.Tid] = append(computeByRank[sp.Tid], sp.Dur/1e3)
		case sp.Cat == "train" && sp.Name == "compute":
			stepCompute = append(stepCompute, sp.Dur/1e3)
		case sp.Cat == "train" && sp.Name == "sync":
			stepSync = append(stepSync, sp.Dur/1e3)
		case sp.Cat == "train" && sp.Name == "checkpoint":
			ckpt = append(ckpt, sp.Dur/1e3)
		}
	}
	_, kernNanos, _, _ := probe.be.totals(-1, -1)
	sampleNanos := probe.smp.nanos.Load()
	out.put("model.other.ms", (rankCompute-float64(kernNanos+sampleNanos)/1e6)/steps, "ms")
	out.put("sampling.sample_ms", perStep(sampleNanos), "ms")
	out.put("optim.step_ms", perStep(probe.opt.nanos.Load()), "ms")
	out.put("core.exchange_ms", perStep(probe.ex.timer.nanos.Load()), "ms")
	ug := float64(probe.ex.uniqueGlobal.Load())
	out.put("core.unique_global", ug/steps, "count")
	out.put("core.unique_ratio", ug/float64(int64(s.ranks)*probe.ex.tokens.Load()), "ratio")

	st := t.Comm().MaxStats()
	out.put("collective.bytes_per_step", float64(st.Total())/steps, "B")
	out.put("collective.calls_per_step", float64(st.AllReduceCalls+st.AllGatherCalls+st.BroadcastCalls)/steps, "count")
	for _, op := range []string{"allreduce", "allgather", "broadcast"} {
		var wall float64
		for _, c := range an.Collectives {
			if strings.HasPrefix(c.Name, op) {
				wall += c.Wall
			}
		}
		out.put("collective."+op+"_ms", wall*1e3/float64(s.ranks)/steps, "ms")
	}

	var wire, wait float64
	for _, st := range an.Steps {
		wire += st.Wire
		wait += st.MaxWait
	}
	if n := float64(len(an.Steps)); n > 0 && s.virtualClock {
		out.put("vclock.compute_ms", an.TotalCompute*1e3/n, "ms")
		out.put("vclock.sync_ms", an.TotalSync*1e3/n, "ms")
		out.put("vclock.wire_ms", wire*1e3/n, "ms")
		out.put("vclock.sync_wait_ms", wait*1e3/n, "ms")
		out.put("vclock.sim_step_ms", (an.TotalCompute+an.TotalSync)*1e3/n, "ms")
	}
	out.put("cluster.peak_dev_mb", float64(t.Cluster().MaxPeak())/(1<<20), "MiB")
	out.put("trainer.compute_ms", mean(stepCompute), "ms")
	out.put("trainer.sync_ms", mean(stepSync), "ms")
	out.put("trainer.straggler_ms", straggler(computeByRank), "ms")
	out.put("ckpt.capture_ms", mean(ckpt), "ms")
	out.put("go.alloc_kb_per_step", allocKB, "KiB")
	out.put("go.gc_cpu_frac", gcFrac, "ratio")
	out.put("trace.overhead_frac", sumDur(traced.steps).Seconds()/sumDur(base.steps).Seconds()-1, "ratio")
	return out, nil
}

// straggler is the mean over steps of the spread between the slowest and
// fastest rank's compute span.
func straggler(byRank map[int][]float64) float64 {
	steps := -1
	for _, xs := range byRank {
		if steps < 0 || len(xs) < steps {
			steps = len(xs)
		}
	}
	var sum float64
	for i := 0; i < steps; i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, xs := range byRank {
			lo, hi = math.Min(lo, xs[i]), math.Max(hi, xs[i])
		}
		sum += hi - lo
	}
	if steps <= 0 {
		return 0
	}
	return sum / float64(steps)
}
