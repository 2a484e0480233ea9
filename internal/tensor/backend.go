package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Backend is the pluggable compute engine behind the matmul kernels: the
// model layers call these methods instead of the package functions, so one
// knob swaps the whole forward/backward/serving compute path. Every
// implementation is bit-identical to the serial reference — the repository's
// correctness contracts (resume, overlap, serving-vs-sequential) are all
// stated in exact bits, so a backend that "only" changes low-order float
// bits would break them.
type Backend interface {
	// MatMul computes dst = a @ b (see the package function).
	MatMul(dst, a, b *Matrix)
	// MatMulATB computes dst = aᵀ @ b.
	MatMulATB(dst, a, b *Matrix)
	// MatMulATBAcc computes dst += aᵀ @ b (fused gradient accumulation).
	MatMulATBAcc(dst, a, b *Matrix)
	// MatMulABT computes dst = a @ bᵀ.
	MatMulABT(dst, a, b *Matrix)
	// MatMulABTStream computes dst = a @ bᵀ with two-row blocking. It runs
	// the same kernel as MatMulABT; both stay so that the model's backward
	// and logits calls (MatMulABT) and its batched serving calls
	// (MatMulABTStream) are timed as separate per-kernel figures.
	MatMulABTStream(dst, a, b *Matrix)
	// MatMulABTStreamQ8 computes dst = a @ dequant(b)ᵀ against int8 weights
	// (the quantized serving hot path; see the package function).
	MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix)
	// MatVecQ8 computes dst = dequant(q) @ x (single-sequence decode).
	MatVecQ8(dst []float32, q *QMatrix, x []float32)
	// Workers reports the tiling width (1 for the serial reference).
	Workers() int
}

// Serial is the reference backend: the package-level kernels, one
// goroutine. Its zero value is ready to use.
type Serial struct{}

// MatMul implements Backend.
func (Serial) MatMul(dst, a, b *Matrix) { MatMul(dst, a, b) }

// MatMulATB implements Backend.
func (Serial) MatMulATB(dst, a, b *Matrix) { MatMulATB(dst, a, b) }

// MatMulATBAcc implements Backend.
func (Serial) MatMulATBAcc(dst, a, b *Matrix) { MatMulATBAcc(dst, a, b) }

// MatMulABT implements Backend.
func (Serial) MatMulABT(dst, a, b *Matrix) { MatMulABT(dst, a, b) }

// MatMulABTStream implements Backend.
func (Serial) MatMulABTStream(dst, a, b *Matrix) { MatMulABTStream(dst, a, b) }

// MatMulABTStreamQ8 implements Backend.
func (Serial) MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) { MatMulABTStreamQ8(dst, a, b) }

// MatVecQ8 implements Backend.
func (Serial) MatVecQ8(dst []float32, q *QMatrix, x []float32) { MatVecQ8(dst, q, x) }

// Workers implements Backend.
func (Serial) Workers() int { return 1 }

// New returns a backend tiling across n workers: Serial for n ≤ 1, a
// *Parallel otherwise.
func New(n int) Backend {
	if n <= 1 {
		return Serial{}
	}
	return NewParallel(n)
}

var defaultBackend struct {
	mu sync.Mutex
	be Backend
}

// Default returns the process-wide default backend, which model.NewLM picks
// up: Serial unless the ZIPFLM_WORKERS environment variable or
// SetDefaultWorkers selected a parallel one. The environment hook is what
// lets the whole test suite — every bit-identity contract in the repository
// — run through the parallel backend with `ZIPFLM_WORKERS=4 go test ./...`,
// which is exactly what the CI workers matrix does.
func Default() Backend {
	defaultBackend.mu.Lock()
	defer defaultBackend.mu.Unlock()
	if defaultBackend.be == nil {
		n, _ := strconv.Atoi(os.Getenv("ZIPFLM_WORKERS"))
		defaultBackend.be = New(n)
	}
	return defaultBackend.be
}

// SetDefaultWorkers replaces the default backend with one tiling across n
// workers (n ≤ 1 restores Serial). It affects models built afterwards, so
// call it before constructing them — zipflm-bench does this to thread its
// -workers flag through experiments that build their own trainers.
func SetDefaultWorkers(n int) {
	defaultBackend.mu.Lock()
	defaultBackend.be = New(n)
	defaultBackend.mu.Unlock()
}

// parallelMinWork is the fused-multiply-add count below which dispatching
// tiles costs more than it saves; smaller calls run serially on the caller.
// The cut keeps the per-token serving path (tiny batches against small
// weights) on the zero-overhead kernel while training-sized products tile.
const parallelMinWork = 1 << 15

// Parallel is a goroutine-tiled backend. Each kernel call partitions its
// output — rows when there are enough of them, columns otherwise (a batch-1
// activation against a V×D embedding tiles the vocabulary axis) — into one
// contiguous tile per worker with boundaries that are a pure function of the
// shape and worker count. Every tile runs the product's one tile kernel
// (see matMulTile) over a disjoint output range, so results are
// bit-identical to Serial at every worker count: no atomic adds, no
// reduction trees, no scheduling dependence.
//
// The workers−1 helper goroutines are persistent (spawned once in
// NewParallel, parked on a channel between calls) and the dispatch path
// performs no allocation, preserving the zero-alloc guarantees of the
// serving hot loop. A Parallel may be shared — concurrent kernel calls
// serialize on an internal mutex, each call then using every worker — which
// is how the trainer gives all simulated ranks one compute device.
type Parallel struct {
	mu      sync.Mutex
	workers int
	job     *parallelJob
}

type kernelKind uint8

const (
	kkMatMul kernelKind = iota
	kkATBAcc
	kkABT
	kkABTQ8
)

// product is one kernel call: which tile kernel, and its operands. The
// matrices are held by value so a caller can pass a stack-built header
// (MatVecQ8's one-row views) without it escaping to the heap.
type product struct {
	kind      kernelKind
	dst, a, b Matrix
	qb        *QMatrix // int8 right operand (kkABTQ8)
}

// tile runs the product's kernel over the dst rows [r0, r1) × columns [c0, c1).
func (pr *product) tile(r0, r1, c0, c1 int) {
	switch pr.kind {
	case kkMatMul:
		matMulTile(&pr.dst, &pr.a, &pr.b, r0, r1, c0, c1)
	case kkATBAcc:
		matMulATBAccTile(&pr.dst, &pr.a, &pr.b, r0, r1, c0, c1)
	case kkABT:
		matMulABTTile(&pr.dst, &pr.a, &pr.b, r0, r1, c0, c1)
	case kkABTQ8:
		matMulABTQ8Tile(&pr.dst, &pr.a, pr.qb, r0, r1, c0, c1)
	}
}

// parallelJob is the state shared with the helper goroutines. The helpers
// hold only this struct (not the Parallel), so an unreachable backend can be
// collected and its cleanup can retire the helpers.
//
// Lifecycle discipline: helpers touch the job fields only between receiving
// a wake token and sending the matching ack, and the dispatching caller
// waits for every ack before returning. Helpers are therefore quiescent
// whenever a new dispatch writes the fields — no generation counters or
// atomic field publication needed, and the race detector agrees.
type parallelJob struct {
	wake chan struct{} // capacity workers-1; one token per helper per call
	ack  chan struct{} // capacity workers-1; one ack per token
	quit chan struct{}
	once sync.Once // guards close(quit): Close and the GC cleanup may both run

	product
	rowTiles, colTiles int          // one of them is 1
	next               atomic.Int64 // tile claim counter
}

// NewParallel returns a backend tiling across n workers (helper goroutines
// plus the calling goroutine). n is clamped to at least 1; more workers than
// GOMAXPROCS is allowed — results do not depend on n, only speed does.
// Helpers persist until Close or until the backend is garbage collected.
func NewParallel(n int) *Parallel {
	if n < 1 {
		n = 1
	}
	p := &Parallel{
		workers: n,
		job: &parallelJob{
			wake: make(chan struct{}, n-1),
			ack:  make(chan struct{}, n-1),
			quit: make(chan struct{}),
		},
	}
	for i := 0; i < n-1; i++ {
		go p.job.run()
	}
	if n > 1 {
		// Helpers reference the job, not the Parallel, so an abandoned
		// backend becomes unreachable and the finalizer retires them.
		runtime.SetFinalizer(p, func(p *Parallel) { p.job.close() })
	}
	return p
}

// Workers implements Backend.
func (p *Parallel) Workers() int { return p.workers }

// Close retires the helper goroutines. The backend must be idle; it is not
// usable afterwards. Close is optional — an unreachable Parallel releases
// its helpers via a GC cleanup — and idempotent.
func (p *Parallel) Close() { p.job.close() }

func (j *parallelJob) close() { j.once.Do(func() { close(j.quit) }) }

// run is the helper loop: wait for a token, claim and execute tiles until
// none remain, ack.
func (j *parallelJob) run() {
	for {
		select {
		case <-j.wake:
			j.claim()
			j.ack <- struct{}{}
		case <-j.quit:
			return
		}
	}
}

// claim executes tiles until the counter exhausts. The caller participates
// too, so a late-scheduled helper costs nothing but its own idle time.
func (j *parallelJob) claim() {
	for {
		t := int(j.next.Add(1)) - 1
		if t >= j.rowTiles*j.colTiles {
			return
		}
		j.runTile(t)
	}
}

// runTile runs tile t of the rowTiles × colTiles grid. Boundaries depend
// only on the shape and the grid, never on scheduling — the determinism the
// bit-identity contract needs. ABT row tiles start on even rows so dot2's
// two-row blocking keeps its pairing (values would be identical anyway; see
// matMulABTTile).
func (j *parallelJob) runTile(t int) {
	m, n := j.dst.Rows, j.dst.Cols
	r, c := t/j.colTiles, t%j.colTiles
	r0, r1 := r*m/j.rowTiles, (r+1)*m/j.rowTiles
	if j.kind == kkABT {
		r0 &^= 1
		if r1 < m {
			r1 &^= 1
		}
	}
	j.tile(r0, r1, c*n/j.colTiles, (c+1)*n/j.colTiles)
}

// run executes one product whose inner dimension is k: inline on the caller
// when it is too small to tile (empty shapes included), otherwise across
// the workers. The decision is a pure function of shape, so it cannot
// perturb determinism (and even when it differs across worker counts, both
// paths compute identical bits).
func (p *Parallel) run(pr product, k int) {
	m, n := pr.dst.Rows, pr.dst.Cols
	if p.workers == 1 || m*k*n < parallelMinWork {
		pr.tile(0, m, 0, n)
		return
	}
	p.dispatch(&pr)
}

// dispatch fans one product across the workers and returns when every tile
// has finished. Zero allocations: the job struct is reused, tokens ride
// preallocated buffered channels.
func (p *Parallel) dispatch(pr *product) {
	j := p.job
	p.mu.Lock()
	j.product = *pr
	// Tile the larger output axis, so batch-1 shapes still spread.
	m, n := pr.dst.Rows, pr.dst.Cols
	j.rowTiles, j.colTiles = min(p.workers, m), 1
	if n > m {
		j.rowTiles, j.colTiles = 1, min(p.workers, n)
	}
	j.next.Store(0)
	for i := 0; i < p.workers-1; i++ {
		j.wake <- struct{}{}
	}
	j.claim()
	for i := 0; i < p.workers-1; i++ {
		<-j.ack
	}
	// Helpers are parked again; drop operand references so a long-lived
	// backend does not pin its last operands.
	j.product = product{}
	p.mu.Unlock()
}

// MatMul implements Backend.
func (p *Parallel) MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	p.run(product{kind: kkMatMul, dst: *dst, a: *a, b: *b}, a.Cols)
}

// MatMulATB implements Backend.
func (p *Parallel) MatMulATB(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	dst.Zero()
	p.MatMulATBAcc(dst, a, b)
}

// MatMulATBAcc implements Backend.
func (p *Parallel) MatMulATBAcc(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	p.run(product{kind: kkATBAcc, dst: *dst, a: *a, b: *b}, a.Rows)
}

// MatMulABT implements Backend.
func (p *Parallel) MatMulABT(dst, a, b *Matrix) { p.MatMulABTStream(dst, a, b) }

// MatMulABTStream implements Backend.
func (p *Parallel) MatMulABTStream(dst, a, b *Matrix) {
	checkMatMulABT(dst, a, b)
	p.run(product{kind: kkABT, dst: *dst, a: *a, b: *b}, a.Cols)
}

// MatMulABTStreamQ8 implements Backend. The cutoff judges the same
// fused-multiply-add count as the FP32 kernels — the int8 path does the same
// arithmetic, just against narrower loads.
func (p *Parallel) MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) {
	checkMatMulABTQ8(dst, a, b)
	p.run(product{kind: kkABTQ8, dst: *dst, a: *a, qb: b}, a.Cols)
}

// MatVecQ8 implements Backend as a one-row MatMulABTStreamQ8, which tiles
// the output elements (q's rows) as columns.
func (p *Parallel) MatVecQ8(dst []float32, q *QMatrix, x []float32) {
	checkMatVecQ8(dst, q, x)
	p.run(product{kind: kkABTQ8, dst: *vecRow(dst), a: *vecRow(x), qb: q}, q.Cols)
}
