package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// small shrinks a training workload so the test runs in about a second
// while keeping every mechanism the workload switches on.
func small(s trainSpec) trainSpec {
	s.model.Vocab = 300
	s.model.Hidden = 24
	s.model.Dim = 16
	if s.model.Sampled > 0 {
		s.model.Sampled = 32
	}
	s.ranks = min(s.ranks, 4)
	s.corpusTokens = 30_000
	s.validRatio = 50
	if s.ckptEvery > 0 {
		s.ckptEvery = 3
	}
	return s
}

// TestWrappedRunBitIdentical is the observation-never-perturbs contract
// for the benchmark's own wrappers: a run with the timing backend,
// exchanger, optimizer and sampler wrappers and the tracer installed ends
// with the same replicas, validation loss and wire traffic as a plain run.
func TestWrappedRunBitIdentical(t *testing.T) {
	for name, spec := range map[string]trainSpec{"train-word": small(trainWord), "train-char": small(trainChar)} {
		t.Run(name, func(t *testing.T) {
			const steps = validAt - trainWarmup
			plain, err := spec.build(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			base, err := spec.runSteps(plain, 0, steps)
			if err != nil {
				t.Fatal(err)
			}
			probe := &trainProbe{tr: telemetry.NewTracer(0)}
			wrapped, err := spec.build(7, probe)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.runSteps(wrapped, 0, steps)
			if err != nil {
				t.Fatal(err)
			}
			if err := wrapped.ReplicasInSync(); err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(base.validLoss) || math.Float64bits(got.validLoss) != math.Float64bits(base.validLoss) {
				t.Fatalf("valid_loss %v wrapped, %v plain", got.validLoss, base.validLoss)
			}
			for r := 0; r < spec.ranks; r++ {
				if paramChecksum(wrapped.Model(r)) != paramChecksum(plain.Model(r)) {
					t.Fatalf("rank %d parameters differ between wrapped and plain runs", r)
				}
			}
			if wrapped.Comm().MaxStats() != plain.Comm().MaxStats() {
				t.Fatalf("wire traffic differs: %+v wrapped, %+v plain", wrapped.Comm().MaxStats(), plain.Comm().MaxStats())
			}
			if _, nanos, _, _ := probe.be.totals(-1, -1); nanos == 0 {
				t.Fatal("timing backend recorded no kernel time")
			}
			if probe.ex.timer.calls.Load() == 0 || probe.opt.calls.Load() == 0 {
				t.Fatal("exchange or optimizer wrapper recorded no calls")
			}
			if probe.tr.Len() == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// TestOptimizerWrapperKeepsSnapshots checks that a wrapped stateful
// optimizer still checkpoints and restores through optim.Snapshotter.
func TestOptimizerWrapperKeepsSnapshots(t *testing.T) {
	newOpt := timedOptimizers(&spanTimer{name: "optimizer"}, func() optim.Optimizer { return optim.NewAdam(0) })
	o := newOpt()
	sn, ok := o.(optim.Snapshotter)
	if !ok {
		t.Fatal("wrapped Adam does not implement optim.Snapshotter")
	}
	p := model.Param{Name: "w", Value: []float32{1, 2}, Grad: []float32{0.5, -0.5}}
	o.Step([]model.Param{p}, 0.1)
	st := sn.Snapshot()
	if st.Kind != "adam" || st.T != 1 {
		t.Fatalf("snapshot %+v, want adam state after one step", st)
	}
	if err := newOpt().(optim.Snapshotter).Restore(st); err != nil {
		t.Fatal(err)
	}

	tr, err := small(trainWord).build(3, &trainProbe{tr: telemetry.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Opt.Kind != "adam" {
		t.Fatalf("checkpoint optimizer kind %q through the wrapper, want adam", cs.Opt.Kind)
	}
	if err := tr.RestoreState(cs); err != nil {
		t.Fatal(err)
	}
}

// TestTimedBackendGenerationBitIdentical checks the probe's premise: the
// serving step path computes the same tokens through the timing backend,
// on FP32 and int8 replicas.
func TestTimedBackendGenerationBitIdentical(t *testing.T) {
	mc := model.Config{Vocab: 200, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Seed: 5}
	opts := sampling.DecodeOpts{Temperature: 0.8, TopK: 16}
	for _, quant := range []bool{false, true} {
		m := model.NewLM(mc)
		if quant {
			m = m.Quantize()
		}
		want := m.GenerateOpts([]int{3, 1, 4, 1, 5}, 20, opts, rng.New(9))
		be := newTimedBackend(tensor.Serial{}, []*model.LM{m})
		m.SetBackend(be)
		got := m.GenerateOpts([]int{3, 1, 4, 1, 5}, 20, opts, rng.New(9))
		if !slices.Equal(got, want) {
			t.Fatalf("quantized=%v: tokens differ through the timing backend", quant)
		}
		if calls, _, _, _ := be.totals(-1, -1); calls == 0 {
			t.Fatalf("quantized=%v: timing backend saw no calls", quant)
		}
		if quant {
			if calls, _, _, _ := be.totals(-1, kMatVecQ8); calls == 0 {
				t.Fatal("batch-1 generation on an int8 replica made no matvec_q8 calls")
			}
		}
	}
}

// TestPoissonScheduleDeterministic checks the open-loop schedule is a pure
// function of its seed and has about the requested rate.
func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(11, 200, 5e9)
	b := poissonSchedule(11, 200, 5e9)
	if len(a) != len(b) {
		t.Fatal("same seed gave schedules of different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different schedules")
		}
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("%d arrivals in 5 s at 200/s", n)
	}
}

// TestMetricSetsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] declared, program prints unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
}
