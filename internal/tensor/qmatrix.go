package tensor

import (
	"fmt"
	"math"
)

// Quantized weight storage for the serving hot path. Single-token RNN decode
// is memory-bandwidth bound — every generated token streams the full weight
// matrices through the core once — so storing weights as int8 with per-chunk
// scales cuts the bytes touched per token 4× against float32. The scheme is
// compress.Quant8's (scale = maxAbs/127 per chunk, symmetric grid), applied
// along matrix rows so the dot-product kernels can dequantize in registers
// chunk by chunk, and rounding is strictly round-to-nearest: a given weight
// matrix always quantizes to the same bytes, which is what lets a checkpoint
// determine its quantized serving replica exactly.

// DefaultQChunk is the scale-block width used when QuantizeMatrix is given a
// non-positive chunk. 64 elements per FP32 scale keeps the scale overhead at
// ~6% of the int8 payload while the block stays small enough that one outlier
// cannot flatten a whole row's resolution.
const DefaultQChunk = 64

// QMatrix is a row-major int8 matrix with one float32 scale per Chunk-wide
// block of each row. Element (r, c) dequantizes to
// float32(Data[r*Cols+c]) * Scales[r*ChunksPerRow() + c/Chunk].
type QMatrix struct {
	Rows, Cols int
	// Chunk is the scale-block width along a row.
	Chunk int
	// Data holds Rows*Cols int8 codes.
	Data []int8
	// Scales holds Rows*ChunksPerRow() per-block scales.
	Scales []float32
}

// ChunksPerRow returns the number of scale blocks each row carries.
func (q *QMatrix) ChunksPerRow() int { return (q.Cols + q.Chunk - 1) / q.Chunk }

// Row returns a view of row r's codes.
func (q *QMatrix) Row(r int) []int8 { return q.Data[r*q.Cols : (r+1)*q.Cols] }

// RowScales returns a view of row r's scales.
func (q *QMatrix) RowScales(r int) []float32 {
	c := q.ChunksPerRow()
	return q.Scales[r*c : (r+1)*c]
}

// Bytes returns the storage footprint: one byte per element plus one FP32
// scale per block (the WireBytes accounting of compress.Quant8, per matrix).
func (q *QMatrix) Bytes() int { return len(q.Data) + 4*len(q.Scales) }

// QuantizeMatrix quantizes m to the per-chunk int8 grid with deterministic
// round-to-nearest (never stochastic — serving replicas must be a pure
// function of the checkpoint). Non-finite inputs are sanitized the way
// compress.Quant8 sanitizes wire payloads: ±Inf saturates to ±MaxFloat32,
// NaN becomes 0. A non-positive chunk selects DefaultQChunk.
func QuantizeMatrix(m *Matrix, chunk int) *QMatrix {
	if chunk <= 0 {
		chunk = DefaultQChunk
	}
	q := &QMatrix{Rows: m.Rows, Cols: m.Cols, Chunk: chunk}
	q.Data = make([]int8, m.Rows*m.Cols)
	q.Scales = make([]float32, m.Rows*q.ChunksPerRow())
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		codes := q.Row(r)
		scales := q.RowScales(r)
		for ci, lo := 0, 0; lo < len(src); ci, lo = ci+1, lo+chunk {
			hi := lo + chunk
			if hi > len(src) {
				hi = len(src)
			}
			scales[ci] = quantizeChunk(codes[lo:hi], src[lo:hi])
		}
	}
	return q
}

// quantizeChunk fills codes with the round-to-nearest int8 grid of src and
// returns the chunk scale (0 for an all-zero chunk, whose codes are all 0).
func quantizeChunk(codes []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if math.IsNaN(float64(v)) {
			continue
		}
		a := v
		if math.IsInf(float64(v), 0) {
			a = math.MaxFloat32
		} else if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range codes {
			codes[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		if math.IsNaN(float64(v)) {
			codes[i] = 0
			continue
		}
		if math.IsInf(float64(v), 0) {
			v = float32(math.Copysign(math.MaxFloat32, float64(v)))
		}
		grid := float32(math.Round(float64(v * inv)))
		if grid > 127 {
			grid = 127
		} else if grid < -127 {
			grid = -127
		}
		codes[i] = int8(grid)
	}
	return scale
}

// Dequantize expands the codes back to float32 — the reference the quantized
// kernels are tested against, and the error-bound property's subject: every
// element lands within half its chunk's scale of the original (up to float32
// rounding), because the grid is round-to-nearest.
func (q *QMatrix) Dequantize() *Matrix {
	out := NewMatrix(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		codes := q.Row(r)
		scales := q.RowScales(r)
		dst := out.Row(r)
		for i, c := range codes {
			dst[i] = float32(c) * scales[i/q.Chunk]
		}
	}
	return out
}

func checkMatMulABTQ8(dst, a *Matrix, b *QMatrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABTStreamQ8 shape mismatch (%dx%d)@(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// MatMulABTStreamQ8 computes dst = a @ dequant(b)ᵀ without materializing the
// dequantized matrix: the quantized serving analogue of MatMulABTStream. Each
// output element is one qdot — per chunk, sixteen strided int8→float32
// partials, the fixed combine tree, sequential tail, then one multiply by
// the chunk scale into a running total in ascending chunk order. That order
// is a pure function of the shapes, independent of tiling, so every backend
// and worker count computes identical bits (the same disjoint-output
// argument as the FP32 tile kernels).
func MatMulABTStreamQ8(dst, a *Matrix, b *QMatrix) {
	checkMatMulABTQ8(dst, a, b)
	matMulABTQ8Tile(dst, a, b, 0, dst.Rows, 0, dst.Cols)
}

// matMulABTQ8Tile is the MatMulABTStreamQ8 kernel over the dst tile rows
// [r0, r1) × columns [c0, c1); every element is an independent qdot.
func matMulABTQ8Tile(dst, a *Matrix, b *QMatrix, r0, r1, c0, c1 int) {
	for i := r0; i < r1; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := c0; j < c1; j++ {
			dr[j] = qdot(ar, b.Row(j), b.RowScales(j), b.Chunk)
		}
	}
}

// MatVecQ8 computes dst = dequant(q) @ x — the single-sequence decode fast
// path (one activation row against a quantized weight or embedding matrix).
// It runs MatMulABTStreamQ8's kernel with x as a one-row a, so dst[j] is
// qdot(x, q.Row(j)) and switching between the two never changes bits.
func MatVecQ8(dst []float32, q *QMatrix, x []float32) {
	checkMatVecQ8(dst, q, x)
	matMulABTQ8Tile(vecRow(dst), vecRow(x), q, 0, 1, 0, q.Rows)
}

func checkMatVecQ8(dst []float32, q *QMatrix, x []float32) {
	if len(x) != q.Cols || len(dst) != q.Rows {
		panic(fmt.Sprintf("tensor: MatVecQ8 shape mismatch (%dx%d)@%d->%d",
			q.Rows, q.Cols, len(x), len(dst)))
	}
}

// vecRow views v as a one-row matrix.
func vecRow(v []float32) *Matrix { return &Matrix{Rows: 1, Cols: len(v), Data: v} }

// qdot computes dot(a, dequant(codes)) chunk by chunk: each chunk sum is
// accumulated in the canonical sixteen-partial order (see qdotGo), scaled
// once, and added to the running total in ascending chunk order. One byte
// loaded per weight instead of four, one scale multiply per chunk instead of
// one per element. On amd64 with SSE4.1 an assembly kernel runs the same
// arithmetic four lanes at a time — the sixteen partials are exactly four
// vector accumulators — converting int8→float32 in registers; qdotGo is the
// portable reference, and the two are bit-identical by construction
// (TestQdotAsmMatchesGo holds the asm to that).
func qdot(a []float32, codes []int8, scales []float32, chunk int) float32 {
	if useQdotAsm && len(codes) > 0 {
		return qdotSSE41(&a[0], &codes[0], &scales[0], len(codes), chunk)
	}
	return qdotGo(a, codes, scales, chunk)
}

// qdotGo is the portable qdot kernel and the canonical definition of the
// accumulation order: within a chunk, sixteen strided partials over
// a[i]·float32(codes[i]) (partial i%16 within each 16-wide block), combined
// as c[j] = (p[j]+p[4+j]) + (p[8+j]+p[12+j]), s = (c[0]+c[1]) + (c[2]+c[3]),
// then a sequential tail; the chunk sum is scaled once and added to the
// running total in ascending chunk order.
func qdotGo(a []float32, codes []int8, scales []float32, chunk int) float32 {
	var total float32
	for ci, lo := 0, 0; lo < len(codes); ci, lo = ci+1, lo+chunk {
		hi := lo + chunk
		if hi > len(codes) {
			hi = len(codes)
		}
		total += scales[ci] * qdotChunkGo(a[lo:hi], codes[lo:hi])
	}
	return total
}

// qdotChunkGo computes one chunk's unscaled sum in the canonical order. The
// group structure (four partials per group, four groups per 16-wide block)
// mirrors the four SSE accumulators lane for lane.
func qdotChunkGo(ac []float32, qc []int8) float32 {
	var p [16]float32
	n := len(qc) &^ 15
	for i := 0; i < n; i += 16 {
		p[0] += ac[i] * float32(qc[i])
		p[1] += ac[i+1] * float32(qc[i+1])
		p[2] += ac[i+2] * float32(qc[i+2])
		p[3] += ac[i+3] * float32(qc[i+3])
		p[4] += ac[i+4] * float32(qc[i+4])
		p[5] += ac[i+5] * float32(qc[i+5])
		p[6] += ac[i+6] * float32(qc[i+6])
		p[7] += ac[i+7] * float32(qc[i+7])
		p[8] += ac[i+8] * float32(qc[i+8])
		p[9] += ac[i+9] * float32(qc[i+9])
		p[10] += ac[i+10] * float32(qc[i+10])
		p[11] += ac[i+11] * float32(qc[i+11])
		p[12] += ac[i+12] * float32(qc[i+12])
		p[13] += ac[i+13] * float32(qc[i+13])
		p[14] += ac[i+14] * float32(qc[i+14])
		p[15] += ac[i+15] * float32(qc[i+15])
	}
	c0 := (p[0] + p[4]) + (p[8] + p[12])
	c1 := (p[1] + p[5]) + (p[9] + p[13])
	c2 := (p[2] + p[6]) + (p[10] + p[14])
	c3 := (p[3] + p[7]) + (p[11] + p[15])
	s := (c0 + c1) + (c2 + c3)
	for i := n; i < len(qc); i++ {
		s += ac[i] * float32(qc[i])
	}
	return s
}
