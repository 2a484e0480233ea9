// Package tensor provides the dense float32 linear-algebra kernels the
// language-model layers are built on: row-major matrices, matmul with
// optional transposes, row gather/scatter-add (the embedding forward and
// backward primitives of §II-A), and the elementwise activations LSTM and
// RHN cells need.
//
// Everything is plain Go over flat slices except the int8 dot product
// behind the quantized kernels, which has an SSE4.1 assembly version on
// amd64 (qdot_amd64.s) held bit-identical to its portable Go reference.
// There is no external BLAS, because the module must build offline from the
// standard library alone. Each matrix product has one cache-friendly tile
// kernel (row-major contiguous access, ikj order for a @ b), which is enough
// for the laptop-scale training runs the reproduction performs.
package tensor

import (
	"fmt"
	"math"

	"zipflm/internal/rng"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (r, c) is Data[r*Cols+c].
	Data []float32
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewMatrixFrom wraps an existing slice as a matrix. The slice is used
// directly (not copied); len(data) must equal rows*cols.
func NewMatrixFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandomizeNormal fills the matrix with N(0, std) values from r.
func (m *Matrix) RandomizeNormal(r *rng.RNG, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64() * std)
	}
}

// RandomizeUniform fills the matrix with U(-bound, bound) values.
func (m *Matrix) RandomizeUniform(r *rng.RNG, bound float64) {
	for i := range m.Data {
		m.Data[i] = float32((2*r.Float64() - 1) * bound)
	}
}

// MatMul computes dst = a @ b. Shapes: a is m x k, b is k x n, dst is m x n.
// dst must not alias a or b. The kernel uses ikj order so the inner loop
// streams both b and dst rows sequentially.
func MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	matMulTile(dst, a, b, 0, dst.Rows, 0, dst.Cols)
}

func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// The four tile kernels below — matMulTile, matMulATBAccTile, matMulABTTile
// and matMulABTQ8Tile — each compute one product over the dst tile rows
// [r0, r1) × columns [c0, c1): the package functions run the whole matrix
// as one tile, the parallel backend runs row tiles (r0, r1, 0, n) or column
// tiles (0, m, c0, c1). Every dst element is accumulated in an order that
// depends only on the shapes, never on the tile it falls in, so any
// partition is bit-identical to the whole-matrix pass.

// matMulTile is the MatMul kernel: each dst element accumulates a[i][k]·b[k][j]
// over k in ascending order.
//
// The aik == 0 skip saves the axpy for sparse multipliers (dropout-masked
// gradients), but IEEE 0×Inf and 0×NaN are NaN, not 0 — skipping a poisoned
// b row would silently erase a diverged activation. The skip therefore also
// requires the b row to be finite; the finiteness scan only runs on the
// skip path, so fully dense inputs pay nothing. It always scans the full b
// row, so every tile makes the same skip decision the whole pass would.
func matMulTile(dst, a, b *Matrix, r0, r1, c0, c1 int) {
	for i := r0; i < r1; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)[c0:c1]
		for j := range dr {
			dr[j] = 0
		}
		for k, aik := range ar {
			br := b.Row(k)
			if aik == 0 && allFinite(br) {
				continue
			}
			axpy(aik, dr, br[c0:c1])
		}
	}
}

// MatMulATB computes dst = aᵀ @ b. Shapes: a is k x m, b is k x n,
// dst is m x n. Used by backward passes (weight gradients).
func MatMulATB(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	dst.Zero()
	MatMulATBAcc(dst, a, b)
}

// MatMulATBAcc computes dst += aᵀ @ b without any scratch: the fused
// gradient-accumulation kernel of the backward passes. Compared with
// MatMulATB into a scratch matrix followed by AddInPlace, it touches dst
// once instead of writing, re-reading, and adding a full scratch matrix —
// the dominant memory traffic of weight-gradient accumulation.
func MatMulATBAcc(dst, a, b *Matrix) {
	checkMatMulATB(dst, a, b)
	matMulATBAccTile(dst, a, b, 0, dst.Rows, 0, dst.Cols)
}

func checkMatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)T@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulATBAccTile is the MatMulATBAcc kernel: dst row i accumulates
// a[k][i]·b.Row(k) for k in ascending order. (Partitioning over k instead —
// per-worker accumulators plus a final reduce — would regroup the float
// adds and change low bits, which is why the parallel backend tiles dst.)
//
// As in matMulTile, the zero-multiplier skip also requires the full b row
// to be finite so NaN/Inf poison propagates; brFinite memoizes the scan per k.
func matMulATBAccTile(dst, a, b *Matrix, r0, r1, c0, c1 int) {
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		bt := br[c0:c1]
		brChecked, brFinite := false, false
		for i := r0; i < r1; i++ {
			aki := ar[i]
			if aki == 0 {
				if !brChecked {
					brChecked, brFinite = true, allFinite(br)
				}
				if brFinite {
					continue
				}
			}
			axpy(aki, dst.Row(i)[c0:c1], bt)
		}
	}
}

// allFinite reports whether every element is finite (no NaN or ±Inf). The
// trick: v−v is ±0 for finite v and NaN otherwise, and a sum of signed
// zeros compares equal to 0 while any NaN poisons it — one branch for the
// whole slice.
func allFinite(x []float32) bool {
	var s0, s1, s2, s3 float32
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += x[i] - x[i]
		s1 += x[i+1] - x[i+1]
		s2 += x[i+2] - x[i+2]
		s3 += x[i+3] - x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n; i < len(x); i++ {
		s += x[i] - x[i]
	}
	return s == 0
}

// MatMulABT computes dst = a @ bᵀ. Shapes: a is m x k, b is n x k,
// dst is m x n. Used by backward passes (input gradients) and by the
// output-embedding logits (hidden @ embeddingᵀ). Every element equals
// Dot(a.Row(i), b.Row(j)) bit for bit. It runs the same kernel as
// MatMulABTStream.
func MatMulABT(dst, a, b *Matrix) {
	MatMulABTStream(dst, a, b)
}

func checkMatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch (%dx%d)@(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// MatMulABTStream computes dst = a @ bᵀ, blocking a's rows two at a time so
// each loaded b element feeds two output rows. This is the batched-inference
// kernel: a is the B×D batch of activations, b a weight or embedding matrix
// shared by the whole batch, and the row blocking is where batched serving
// earns its throughput — a per-row Dot is load-port bound (two loads per
// multiply-add), while dot2 amortizes the b loads across the pair (two-row
// blocking measures ~40% faster here; wider blocks spill float registers
// and lose it again). Every output element is accumulated in exactly Dot's
// order (four strided partials, pairwise combine, sequential tail), so a
// batch row computes the same bits it would in a batch of one, the serving
// layer's correctness contract.
func MatMulABTStream(dst, a, b *Matrix) {
	checkMatMulABT(dst, a, b)
	matMulABTTile(dst, a, b, 0, dst.Rows, 0, dst.Cols)
}

// matMulABTTile is the MatMulABT kernel: rows paired through dot2, an odd
// last row through Dot. Because dot2 computes each row's result
// bit-identically to Dot, the pairing of a's rows never changes any value.
// (The parallel backend still aligns row tiles to even starts so the
// blocking keeps its throughput.)
func matMulABTTile(dst, a, b *Matrix, r0, r1, c0, c1 int) {
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		d0, d1 := dst.Row(i), dst.Row(i+1)
		for j := c0; j < c1; j++ {
			d0[j], d1[j] = dot2(a0, a1, b.Row(j))
		}
	}
	if i < r1 {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := c0; j < c1; j++ {
			dr[j] = Dot(ar, b.Row(j))
		}
	}
}

// dot2 computes two inner products against one shared vector, loading each
// b element once for both rows. Per row the arithmetic is exactly Dot's —
// same four strided accumulators, same combine, same tail order — so each
// result is bit-identical to calling Dot on that row alone.
func dot2(a0, a1, b []float32) (r0, r1 float32) {
	a0 = a0[:len(b)]
	a1 = a1[:len(b)]
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	n := len(b) &^ 3
	for i := 0; i < n; i += 4 {
		b0, b1, b2, b3 := b[i], b[i+1], b[i+2], b[i+3]
		s00 += a0[i] * b0
		s01 += a0[i+1] * b1
		s02 += a0[i+2] * b2
		s03 += a0[i+3] * b3
		s10 += a1[i] * b0
		s11 += a1[i+1] * b1
		s12 += a1[i+2] * b2
		s13 += a1[i+3] * b3
	}
	r0 = (s00 + s01) + (s02 + s03)
	r1 = (s10 + s11) + (s12 + s13)
	for i := n; i < len(b); i++ {
		r0 += a0[i] * b[i]
		r1 += a1[i] * b[i]
	}
	return r0, r1
}

// AddInPlace computes dst += src elementwise.
func AddInPlace(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Axpy computes dst += alpha * src.
func Axpy(alpha float32, dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Axpy length mismatch")
	}
	axpy(alpha, dst, src)
}

// axpy is the unchecked, 4-way unrolled kernel behind Axpy and the matmul
// inner loops (callers guarantee equal lengths).
func axpy(alpha float32, dst, src []float32) {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// Scale multiplies every element by alpha.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of a and b. Four independent accumulators
// break the floating-point add latency chain that serializes the naive
// loop, which is what lets the backward passes' a@bᵀ products run at
// memory speed instead of FLOP-latency speed.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// L2Norm returns the Euclidean norm of x (accumulated in float64 for
// stability).
func L2Norm(x []float32) float64 {
	var sum float64
	for _, v := range x {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// GatherRows copies src rows indexed by idx into dst: dst.Row(i) =
// src.Row(idx[i]). This is the embedding lookup of §II-A (the K x D dense
// activation matrix built from the |V| x D embedding matrix).
func GatherRows(dst, src *Matrix, idx []int) {
	if dst.Cols != src.Cols || dst.Rows != len(idx) {
		panic("tensor: GatherRows shape mismatch")
	}
	for i, j := range idx {
		copy(dst.Row(i), src.Row(j))
	}
}

// ScatterAddRows accumulates src rows into dst rows selected by idx:
// dst.Row(idx[i]) += src.Row(i). This is the embedding gradient update of
// §II-A — multiple tokens of the same word accumulate into one row, which is
// exactly the operation the paper's uniqueness technique reorganizes.
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if dst.Cols != src.Cols || src.Rows != len(idx) {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	for i, j := range idx {
		AddInPlace(dst.Row(j), src.Row(i))
	}
}

// Sigmoid computes 1/(1+e^-x) elementwise into dst.
func Sigmoid(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Sigmoid length mismatch")
	}
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// Tanh computes tanh elementwise into dst.
func Tanh(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Tanh length mismatch")
	}
	for i, v := range src {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

// SoftmaxRow normalizes a single logit vector into a probability
// distribution in place, using the max-subtraction trick for stability.
func SoftmaxRow(x []float32) {
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxV))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// LogSumExpRow returns log(sum(exp(x))) computed stably.
func LogSumExpRow(x []float32) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range x {
		sum += math.Exp(float64(v - maxV))
	}
	return float64(maxV) + math.Log(sum)
}

// ClipL2 rescales x in place so its L2 norm does not exceed maxNorm, and
// returns the pre-clip norm. Gradient clipping keeps the scaled-down RNN
// training runs stable.
func ClipL2(x []float32, maxNorm float64) float64 {
	n := L2Norm(x)
	if n > maxNorm && n > 0 {
		Scale(x, float32(maxNorm/n))
	}
	return n
}
