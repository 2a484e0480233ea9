package main

// Outside-in timing wrappers. Each one implements an interface the library
// already exposes as an injection point and forwards every call unchanged,
// so the wrapped program computes exactly what the unwrapped one does
// (wrap_test.go checks this bit for bit). Kernel calls only bump counters:
// a training step makes thousands of them, far more than a span buffer
// should hold. Spans are recorded at the coarser exchange, optimizer,
// sampler and request boundaries.

import (
	"sync/atomic"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// Kernel indices, one per tensor.Backend method.
const (
	kMatMul = iota
	kMatMulATB
	kMatMulATBAcc
	kMatMulABT
	kMatMulABTStream
	kMatMulABTStreamQ8
	kMatVecQ8
	numKernels
)

// kernelNames are the metric names of the kernels, in index order.
var kernelNames = [numKernels]string{
	"matmul", "matmul_atb", "matmul_atb_acc", "matmul_abt",
	"matmul_abt_stream", "matmul_abt_stream_q8", "matvec_q8",
}

// Model layers a kernel call is attributed to.
const (
	lRecurrent = iota
	lProjection
	lSoftmax
	numLayers
)

var layerNames = [numLayers]string{"recurrent", "projection", "softmax"}

// kernelCounter accumulates one (layer, kernel) cell. Ranks call kernels
// concurrently, so every field is atomic.
type kernelCounter struct {
	calls, nanos, flops, bytes atomic.Int64
}

// layerMap attributes a kernel call to a model layer by the operands it
// touches: a call reading or writing a recurrent parameter (value or
// gradient) belongs to the recurrent layer, one touching a projection
// parameter to the projection, and everything else — the output embedding,
// its sampled-candidate copies and their gradients — to the softmax. Int8
// weights have no FP32 parameter to match, so they are attributed by shape.
type layerMap struct {
	ptr            map[*float32]int
	vocab, dim, hd int
}

func newLayerMap(models []*model.LM) *layerMap {
	lm := &layerMap{ptr: map[*float32]int{}}
	for _, m := range models {
		lm.vocab, lm.dim, lm.hd = m.Cfg.Vocab, m.Cfg.Dim, m.Cfg.Hidden
		for layer, l := range m.DenseLayers() {
			for _, p := range l.Params() {
				if len(p.Value) > 0 {
					lm.ptr[&p.Value[0]] = layer
				}
				if len(p.Grad) > 0 {
					lm.ptr[&p.Grad[0]] = layer
				}
			}
		}
	}
	return lm
}

func (lm *layerMap) of(ms ...*tensor.Matrix) int {
	for _, m := range ms {
		if len(m.Data) == 0 {
			continue
		}
		if l, ok := lm.ptr[&m.Data[0]]; ok {
			return l
		}
	}
	return lSoftmax
}

func (lm *layerMap) ofQ(q *tensor.QMatrix) int {
	switch {
	case q.Rows == lm.vocab:
		return lSoftmax
	case q.Rows == lm.dim && q.Cols == lm.hd:
		return lProjection
	default:
		return lRecurrent
	}
}

// timedBackend is a tensor.Backend that times every call into the inner
// backend and credits its operation count and compulsory bytes (each
// operand read or written once, computed from the shapes) to a (layer,
// kernel) cell.
type timedBackend struct {
	inner  tensor.Backend
	layers *layerMap
	cells  [numLayers][numKernels]kernelCounter
}

func newTimedBackend(inner tensor.Backend, models []*model.LM) *timedBackend {
	return &timedBackend{inner: inner, layers: newLayerMap(models)}
}

func (b *timedBackend) record(layer, kernel int, t0 time.Time, flops, bytes int64) {
	c := &b.cells[layer][kernel]
	c.nanos.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	c.flops.Add(flops)
	c.bytes.Add(bytes)
}

// fmn returns 2·m·k·n (one multiply and one add per term) and the f32
// bytes of three operands of the given element counts.
func fmn(m, k, n, e1, e2, e3 int) (int64, int64) {
	return 2 * int64(m) * int64(k) * int64(n), 4 * int64(e1+e2+e3)
}

func (b *timedBackend) MatMul(dst, a, x *tensor.Matrix) {
	t0 := time.Now()
	b.inner.MatMul(dst, a, x)
	f, by := fmn(a.Rows, a.Cols, x.Cols, len(a.Data), len(x.Data), len(dst.Data))
	b.record(b.layers.of(dst, a, x), kMatMul, t0, f, by)
}

func (b *timedBackend) MatMulATB(dst, a, x *tensor.Matrix) {
	t0 := time.Now()
	b.inner.MatMulATB(dst, a, x)
	f, by := fmn(a.Cols, a.Rows, x.Cols, len(a.Data), len(x.Data), len(dst.Data))
	b.record(b.layers.of(dst, a, x), kMatMulATB, t0, f, by)
}

func (b *timedBackend) MatMulATBAcc(dst, a, x *tensor.Matrix) {
	t0 := time.Now()
	b.inner.MatMulATBAcc(dst, a, x)
	// The accumulator is read and written.
	f, by := fmn(a.Cols, a.Rows, x.Cols, len(a.Data), len(x.Data), 2*len(dst.Data))
	b.record(b.layers.of(dst, a, x), kMatMulATBAcc, t0, f, by)
}

func (b *timedBackend) MatMulABT(dst, a, x *tensor.Matrix) {
	t0 := time.Now()
	b.inner.MatMulABT(dst, a, x)
	f, by := fmn(a.Rows, a.Cols, x.Rows, len(a.Data), len(x.Data), len(dst.Data))
	b.record(b.layers.of(dst, a, x), kMatMulABT, t0, f, by)
}

func (b *timedBackend) MatMulABTStream(dst, a, x *tensor.Matrix) {
	t0 := time.Now()
	b.inner.MatMulABTStream(dst, a, x)
	// Stepper scratch may be viewed down to fewer rows than it holds, so
	// count the rows in use rather than the backing array.
	f, by := fmn(a.Rows, a.Cols, x.Rows, a.Rows*a.Cols, x.Rows*x.Cols, dst.Rows*dst.Cols)
	b.record(b.layers.of(dst, a, x), kMatMulABTStream, t0, f, by)
}

func (b *timedBackend) MatMulABTStreamQ8(dst, a *tensor.Matrix, q *tensor.QMatrix) {
	t0 := time.Now()
	b.inner.MatMulABTStreamQ8(dst, a, q)
	f := 2 * int64(a.Rows) * int64(a.Cols) * int64(q.Rows)
	by := int64(q.Bytes()) + 4*int64(a.Rows*a.Cols+dst.Rows*dst.Cols)
	b.record(b.layers.ofQ(q), kMatMulABTStreamQ8, t0, f, by)
}

func (b *timedBackend) MatVecQ8(dst []float32, q *tensor.QMatrix, x []float32) {
	t0 := time.Now()
	b.inner.MatVecQ8(dst, q, x)
	f := 2 * int64(q.Rows) * int64(q.Cols)
	by := int64(q.Bytes()) + 4*int64(len(x)+len(dst))
	b.record(b.layers.ofQ(q), kMatVecQ8, t0, f, by)
}

func (b *timedBackend) Workers() int { return b.inner.Workers() }

// totals sums the cells of one kernel (layer < 0) or one layer (kernel <
// 0), or everything when both are negative.
func (b *timedBackend) totals(layer, kernel int) (calls, nanos, flops, bytes int64) {
	for l := 0; l < numLayers; l++ {
		for k := 0; k < numKernels; k++ {
			if (layer >= 0 && l != layer) || (kernel >= 0 && k != kernel) {
				continue
			}
			c := &b.cells[l][k]
			calls += c.calls.Load()
			nanos += c.nanos.Load()
			flops += c.flops.Load()
			bytes += c.bytes.Load()
		}
	}
	return
}

// spanTimer accumulates the wall time of one kind of call and records each
// call as a span (cat "bench") in the run's tracer.
type spanTimer struct {
	tr    *telemetry.Tracer
	name  string
	calls atomic.Int64
	nanos atomic.Int64
}

func (s *spanTimer) done(tid int, t0 time.Time) {
	d := time.Since(t0)
	s.calls.Add(1)
	s.nanos.Add(int64(d))
	s.tr.Span("bench", s.name, tid, t0, d, 0, 0)
}

// timedExchanger wraps a core.Exchanger. The trainer calls it once for the
// input embedding and, under sampled softmax, once more for the output
// embedding; the first call of each rank's pair carries the input
// embedding's unique-word statistics.
type timedExchanger struct {
	inner core.Exchanger
	timer spanTimer
	// Input-embedding statistics, summed over steps (rank 0's view; every
	// rank sees the same global figures).
	uniqueGlobal, tokens atomic.Int64
	// perRank counts each rank's calls so the input exchange of a step can
	// be told from the output one.
	perRank []atomic.Int64
	sampled bool
}

func newTimedExchanger(inner core.Exchanger, ranks int, sampled bool, tr *telemetry.Tracer) *timedExchanger {
	return &timedExchanger{inner: inner, timer: spanTimer{tr: tr, name: "exchange"},
		perRank: make([]atomic.Int64, ranks), sampled: sampled}
}

func (x *timedExchanger) Name() string { return x.inner.Name() }

func (x *timedExchanger) Exchange(ctx *core.Ctx, grad core.SparseGrad) (core.Update, core.Stats, error) {
	t0 := time.Now()
	upd, st, err := x.inner.Exchange(ctx, grad)
	x.timer.done(ctx.Rank, t0)
	n := x.perRank[ctx.Rank].Add(1)
	input := !x.sampled || n%2 == 1
	if input && ctx.Rank == 0 && err == nil {
		x.uniqueGlobal.Add(int64(st.UniqueGlobal))
		x.tokens.Add(int64(st.Tokens))
	}
	return upd, st, err
}

type timedOptimizer struct {
	inner optim.Optimizer
	timer *spanTimer
	rank  int
}

func (o *timedOptimizer) Step(params []model.Param, lr float32) {
	t0 := time.Now()
	o.inner.Step(params, lr)
	o.timer.done(o.rank, t0)
}

// timedSnapshotOptimizer passes optim.Snapshotter through, so checkpoint
// capture and restore see the inner optimizer's state.
type timedSnapshotOptimizer struct {
	*timedOptimizer
	optim.Snapshotter
}

// timedOptimizers wraps a trainer's Config.NewOptimizer factory so each
// optimizer it makes is timed by t. The trainer calls the factory once per
// rank, in rank order.
func timedOptimizers(t *spanTimer, inner func() optim.Optimizer) func() optim.Optimizer {
	var next int
	return func() optim.Optimizer {
		o := &timedOptimizer{inner: inner(), timer: t, rank: next}
		next++
		if sn, ok := o.inner.(optim.Snapshotter); ok {
			return timedSnapshotOptimizer{o, sn}
		}
		return o
	}
}

type timedSampler struct {
	inner sampling.CandidateSampler
	timer *spanTimer
}

func (s timedSampler) Sample(n int, targets []int) []int {
	t0 := time.Now()
	out := s.inner.Sample(n, targets)
	s.timer.done(0, t0)
	return out
}

func (s timedSampler) LogExpectedCount(n int, w int) float64 {
	return s.inner.LogExpectedCount(n, w)
}

// timedSamplers wraps a trainer's Config.NewSampler factory so each
// sampler it makes is timed by t.
func timedSamplers(t *spanTimer, inner func(vocab int, seed uint64) sampling.CandidateSampler) func(int, uint64) sampling.CandidateSampler {
	return func(vocab int, seed uint64) sampling.CandidateSampler {
		return timedSampler{inner: inner(vocab, seed), timer: t}
	}
}

// defaultSampler is the trainer's own default (Config.NewSampler == nil).
func defaultSampler(vocab int, seed uint64) sampling.CandidateSampler {
	return sampling.NewSampler(vocab, seed)
}

// putKernels reports the timing backend's counters per unit of work.
func putKernels(out *outcome, be *timedBackend, units float64) {
	_, nanos, flops, bytes := be.totals(-1, -1)
	out.put("tensor.kernel_ms", float64(nanos)/1e6/units, "ms")
	out.put("tensor.gflop_s", safeDiv(float64(flops), float64(nanos)), "GFLOP/s")
	out.put("tensor.gbyte_s", safeDiv(float64(bytes), float64(nanos)), "GB/s")
	out.put("tensor.flops_per_step", float64(flops)/units, "FLOP")
	for k := 0; k < numKernels; k++ {
		_, n, _, _ := be.totals(-1, k)
		out.put("tensor."+kernelNames[k]+".ms", float64(n)/1e6/units, "ms")
	}
	for l := 0; l < numLayers; l++ {
		_, n, _, _ := be.totals(l, -1)
		out.put("model."+layerNames[l]+".ms", float64(n)/1e6/units, "ms")
	}
}
