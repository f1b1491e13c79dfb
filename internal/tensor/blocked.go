package tensor

import "fmt"

// This file holds the row-blocked variants of the MatMul*Into kernels,
// used by the batched execution engine (internal/batch and the *Batch
// forwards in internal/nn). They trade the streaming
// read-modify-write of MatMulInto's inner loop for a small block of local
// accumulators that the compiler keeps in registers, storing each dst
// element exactly once.
//
// # Bit-identity invariant
//
// Tiling is over rows and columns of dst only — NEVER over the k
// accumulation axis. Every dst element still receives its products in
// ascending-k order from a +0 start, exactly like MatMulInto, so a blocked
// product is bit-identical to the serial kernel for any block size. The
// property tests in blocked_test.go gate this for random shapes.

// blockedRowsInto computes every row of a·b with the register-tiled
// kernel. Shapes must already be validated by the caller.
func blockedRowsInto(dst, a, b *Matrix) {
	k, c := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		blockedRowInto(orow, arow, b, k, c)
	}
}

// blockedRowInto computes one dst row: orow[j] = Σ_k arow[k]·b[k][j], with
// column blocks of eight register accumulators. Per element the k loop is
// complete and ascending from +0 — the MatMulInto accumulation order.
func blockedRowInto(orow, arow []float64, b *Matrix, k, c int) {
	bd := b.Data
	arow = arow[:k]
	j := 0
	for ; j+8 <= c; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		bi := j
		for _, av := range arow {
			p := (*[8]float64)(bd[bi:])
			s0 += av * p[0]
			s1 += av * p[1]
			s2 += av * p[2]
			s3 += av * p[3]
			s4 += av * p[4]
			s5 += av * p[5]
			s6 += av * p[6]
			s7 += av * p[7]
			bi += c
		}
		o := (*[8]float64)(orow[j:])
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		o[4], o[5], o[6], o[7] = s4, s5, s6, s7
	}
	for ; j+4 <= c; j += 4 {
		var s0, s1, s2, s3 float64
		bi := j
		for _, av := range arow {
			p := (*[4]float64)(bd[bi:])
			s0 += av * p[0]
			s1 += av * p[1]
			s2 += av * p[2]
			s3 += av * p[3]
			bi += c
		}
		o := (*[4]float64)(orow[j:])
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; j < c; j++ {
		var s float64
		bi := j
		for _, av := range arow {
			s += av * bd[bi]
			bi += c
		}
		orow[j] = s
	}
}

// MatMulBlockedInto writes a·b into dst with the register-tiled kernel.
// Shapes, aliasing rules, and the result are exactly those of MatMulInto;
// only the dst traffic differs (one store per element instead of one
// read-modify-write per product).
func MatMulBlockedInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBlockedInto inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkShape("MatMulBlockedInto", dst, a.Rows, b.Cols)
	noAlias("MatMulBlockedInto", dst, a)
	noAlias("MatMulBlockedInto", dst, b)
	blockedRowsInto(dst, a, b)
}

// MatMulAddBiasBlockedInto writes a·b + bias into dst, bit-identical to
// MatMulAddBiasInto: every element receives its complete k-sum first and
// the broadcast bias is added once afterwards.
func MatMulAddBiasBlockedInto(dst, a, b, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasBlockedInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	MatMulBlockedInto(dst, a, b)
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j, bv := range bias.Data {
			row[j] += bv
		}
	}
}

// MatMulDualAddBiasBlockedInto writes a1·b1 + a2·b2 + bias into dst in one
// pass — the fused LSTM pre-activation z = x·Wx + h·Wh + b. Bit-identical
// to MatMulInto(z, a1, b1); MatMulInto(zh, a2, b2); AddInPlace(z, zh); plus
// a broadcast bias add: each product keeps its own ascending-k accumulator
// from a +0 start and the three terms are added left to right exactly once
// per element. dst must not alias any input.
func MatMulDualAddBiasBlockedInto(dst, a1, b1, a2, b2, bias *Matrix) {
	if a1.Cols != b1.Rows || a2.Cols != b2.Rows {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasBlockedInto inner mismatch %dx%d · %dx%d + %dx%d · %dx%d",
			a1.Rows, a1.Cols, b1.Rows, b1.Cols, a2.Rows, a2.Cols, b2.Rows, b2.Cols))
	}
	if a1.Rows != a2.Rows || b1.Cols != b2.Cols {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasBlockedInto outer mismatch %dx%d vs %dx%d",
			a1.Rows, b1.Cols, a2.Rows, b2.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b1.Cols {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasBlockedInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b1.Cols))
	}
	checkShape("MatMulDualAddBiasBlockedInto", dst, a1.Rows, b1.Cols)
	for _, src := range []*Matrix{a1, b1, a2, b2, bias} {
		noAlias("MatMulDualAddBiasBlockedInto", dst, src)
	}
	k1, k2, c := a1.Cols, a2.Cols, b1.Cols
	b1d, b2d, bd := b1.Data, b2.Data, bias.Data
	for i := 0; i < a1.Rows; i++ {
		a1row := a1.Row(i)[:k1]
		a2row := a2.Row(i)[:k2]
		orow := dst.Row(i)
		j := 0
		for ; j+4 <= c; j += 4 {
			var s0, s1, s2, s3 float64
			bi := j
			for _, av := range a1row {
				p := (*[4]float64)(b1d[bi:])
				s0 += av * p[0]
				s1 += av * p[1]
				s2 += av * p[2]
				s3 += av * p[3]
				bi += c
			}
			var u0, u1, u2, u3 float64
			bi = j
			for _, av := range a2row {
				p := (*[4]float64)(b2d[bi:])
				u0 += av * p[0]
				u1 += av * p[1]
				u2 += av * p[2]
				u3 += av * p[3]
				bi += c
			}
			bp := (*[4]float64)(bd[j:])
			o := (*[4]float64)(orow[j:])
			o[0] = s0 + u0 + bp[0]
			o[1] = s1 + u1 + bp[1]
			o[2] = s2 + u2 + bp[2]
			o[3] = s3 + u3 + bp[3]
		}
		for ; j < c; j++ {
			var s, u float64
			bi := j
			for _, av := range a1row {
				s += av * b1d[bi]
				bi += c
			}
			bi = j
			for _, av := range a2row {
				u += av * b2d[bi]
				bi += c
			}
			orow[j] = s + u + bd[j]
		}
	}
}

// MatMulDualAddBiasDotInto computes the same fused LSTM pre-activation as
// MatMulDualAddBiasBlockedInto — dst = a1·b1 + a2·b2 + bias — but takes the
// weight matrices pre-transposed (b1t is b1ᵀ, b2t is b2ᵀ). With b
// transposed, each dst element is a dot product of two contiguous rows, so
// the inner loops stream sequentially through memory instead of striding
// b by its column count; on the LSTM batch shapes this roughly doubles the
// kernel's throughput. Transposing is a pure data relayout — it changes
// which float is loaded when, never what is multiplied or in which order —
// so the result stays bit-identical to the strided kernel and to the
// serial MatMulInto sequence: per element, each product keeps its own
// ascending-k accumulator from a +0 start and the three terms combine
// left to right exactly once. dst must not alias any input.
func MatMulDualAddBiasDotInto(dst, a1, b1t, a2, b2t, bias *Matrix) {
	if a1.Cols != b1t.Cols || a2.Cols != b2t.Cols {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDotInto inner mismatch %dx%d · (%dx%d)ᵀ + %dx%d · (%dx%d)ᵀ",
			a1.Rows, a1.Cols, b1t.Rows, b1t.Cols, a2.Rows, a2.Cols, b2t.Rows, b2t.Cols))
	}
	if a1.Rows != a2.Rows || b1t.Rows != b2t.Rows {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDotInto outer mismatch %dx%d vs %dx%d",
			a1.Rows, b1t.Rows, a2.Rows, b2t.Rows))
	}
	if bias.Rows != 1 || bias.Cols != b1t.Rows {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDotInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b1t.Rows))
	}
	checkShape("MatMulDualAddBiasDotInto", dst, a1.Rows, b1t.Rows)
	for _, src := range []*Matrix{a1, b1t, a2, b2t, bias} {
		noAlias("MatMulDualAddBiasDotInto", dst, src)
	}
	k1, k2, c := a1.Cols, a2.Cols, b1t.Rows
	rows := a1.Rows
	bd := bias.Data
	// Column blocks are the OUTER loop: a block's six weight rows are
	// sliced once and stay L1-hot across every batch row, instead of the
	// whole weight matrix streaming past each row. Per dst element the
	// computation is identical either way — only the element visit order
	// changes, never any element's own accumulation order.
	j := 0
	// Six dot products at a time: twelve accumulators split across two
	// passes of six, which is the widest block that keeps every accumulator
	// and row pointer in registers.
	for ; j+6 <= c; j += 6 {
		c0 := b1t.Row(j)[:k1]
		c1 := b1t.Row(j + 1)[:k1]
		c2 := b1t.Row(j + 2)[:k1]
		c3 := b1t.Row(j + 3)[:k1]
		c4 := b1t.Row(j + 4)[:k1]
		c5 := b1t.Row(j + 5)[:k1]
		d0 := b2t.Row(j)[:k2]
		d1 := b2t.Row(j + 1)[:k2]
		d2 := b2t.Row(j + 2)[:k2]
		d3 := b2t.Row(j + 3)[:k2]
		d4 := b2t.Row(j + 4)[:k2]
		d5 := b2t.Row(j + 5)[:k2]
		bp := (*[6]float64)(bd[j:])
		for i := 0; i < rows; i++ {
			a1row := a1.Row(i)[:k1]
			var s0, s1, s2, s3, s4, s5 float64
			for k, av := range a1row {
				s0 += av * c0[k]
				s1 += av * c1[k]
				s2 += av * c2[k]
				s3 += av * c3[k]
				s4 += av * c4[k]
				s5 += av * c5[k]
			}
			a2row := a2.Row(i)[:k2]
			var u0, u1, u2, u3, u4, u5 float64
			for k, av := range a2row {
				u0 += av * d0[k]
				u1 += av * d1[k]
				u2 += av * d2[k]
				u3 += av * d3[k]
				u4 += av * d4[k]
				u5 += av * d5[k]
			}
			o := (*[6]float64)(dst.Row(i)[j:])
			o[0] = s0 + u0 + bp[0]
			o[1] = s1 + u1 + bp[1]
			o[2] = s2 + u2 + bp[2]
			o[3] = s3 + u3 + bp[3]
			o[4] = s4 + u4 + bp[4]
			o[5] = s5 + u5 + bp[5]
		}
	}
	for ; j < c; j++ {
		c0 := b1t.Row(j)[:k1]
		d0 := b2t.Row(j)[:k2]
		bv := bd[j]
		for i := 0; i < rows; i++ {
			a1row := a1.Row(i)[:k1]
			var s float64
			for k, av := range a1row {
				s += av * c0[k]
			}
			a2row := a2.Row(i)[:k2]
			var u float64
			for k, av := range a2row {
				u += av * d0[k]
			}
			dst.Row(i)[j] = s + u + bv
		}
	}
}

// MatMulDotInto computes dst = a·b with the second operand pre-transposed
// (bt is bᵀ): the bias-free member of the dot-kernel family, bit-identical
// to MatMulInto and MatMulBlockedInto. See MatMulDualAddBiasDotInto for
// the layout argument.
func MatMulDotInto(dst, a, bt *Matrix) {
	if a.Cols != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulDotInto inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	checkShape("MatMulDotInto", dst, a.Rows, bt.Rows)
	noAlias("MatMulDotInto", dst, a)
	noAlias("MatMulDotInto", dst, bt)
	k, c := a.Cols, bt.Rows
	rows := a.Rows
	j := 0
	for ; j+6 <= c; j += 6 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		c4 := bt.Row(j + 4)[:k]
		c5 := bt.Row(j + 5)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3, s4, s5 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
				s4 += av * c4[kk]
				s5 += av * c5[kk]
			}
			o := (*[6]float64)(dst.Row(i)[j:])
			o[0], o[1], o[2] = s0, s1, s2
			o[3], o[4], o[5] = s3, s4, s5
		}
	}
	for ; j+4 <= c; j += 4 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
			}
			o := (*[4]float64)(dst.Row(i)[j:])
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; j < c; j++ {
		c0 := bt.Row(j)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s float64
			for kk, av := range arow {
				s += av * c0[kk]
			}
			dst.Row(i)[j] = s
		}
	}
}

// MatMulAddBiasDotInto computes dst = a·b + bias with the weight matrix
// pre-transposed (bt is bᵀ), the single-product counterpart of
// MatMulDualAddBiasDotInto. Same contract as MatMulAddBiasInto — complete
// ascending-k sum per element, bias added once afterwards — and the same
// loop nest as the dual kernel: column blocks outer so six weight rows
// stay hot across all batch rows. Bit-identical to MatMulAddBiasInto and
// its blocked variant for every shape.
func MatMulAddBiasDotInto(dst, a, bt, bias *Matrix) {
	if a.Cols != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasDotInto inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	if bias.Rows != 1 || bias.Cols != bt.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddBiasDotInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, bt.Rows))
	}
	checkShape("MatMulAddBiasDotInto", dst, a.Rows, bt.Rows)
	noAlias("MatMulAddBiasDotInto", dst, a)
	noAlias("MatMulAddBiasDotInto", dst, bt)
	noAlias("MatMulAddBiasDotInto", dst, bias)
	k, c := a.Cols, bt.Rows
	rows := a.Rows
	bd := bias.Data
	j := 0
	for ; j+6 <= c; j += 6 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		c4 := bt.Row(j + 4)[:k]
		c5 := bt.Row(j + 5)[:k]
		bp := (*[6]float64)(bd[j:])
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3, s4, s5 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
				s4 += av * c4[kk]
				s5 += av * c5[kk]
			}
			o := (*[6]float64)(dst.Row(i)[j:])
			o[0] = s0 + bp[0]
			o[1] = s1 + bp[1]
			o[2] = s2 + bp[2]
			o[3] = s3 + bp[3]
			o[4] = s4 + bp[4]
			o[5] = s5 + bp[5]
		}
	}
	for ; j+4 <= c; j += 4 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		bp := (*[4]float64)(bd[j:])
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
			}
			o := (*[4]float64)(dst.Row(i)[j:])
			o[0] = s0 + bp[0]
			o[1] = s1 + bp[1]
			o[2] = s2 + bp[2]
			o[3] = s3 + bp[3]
		}
	}
	for ; j < c; j++ {
		c0 := bt.Row(j)[:k]
		bv := bd[j]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s float64
			for kk, av := range arow {
				s += av * c0[kk]
			}
			dst.Row(i)[j] = s + bv
		}
	}
}
