package tensor

import "fmt"

// This file holds the dot-kernel family, the only forward matmuls of the
// f64 backend (tensor.F64). Each takes the weight operand pre-transposed
// (bt is bᵀ, served by Weights.T), so every dst element is a dot product of
// two contiguous rows and the inner loops stream sequentially through
// memory. Column blocks of six (then four) register accumulators are the
// outer loop, so a block's weight rows stay L1-hot across all batch rows,
// and each dst element is stored exactly once.
//
// # Bit-identity invariant
//
// Tiling is over rows and columns of dst only — NEVER over the k
// accumulation axis. Every dst element still receives its products in
// ascending-k order from a +0 start, exactly like MatMulInto, so a dot
// kernel is bit-identical to MatMulInto (the test oracle) for every shape,
// and one call over N stacked rows equals N one-row calls. The property
// tests in blocked_test.go gate this for random and edge shapes.

// MatMulDualAddBiasDotInto computes the fused LSTM pre-activation
// dst = a1·b1 + a2·b2 + bias with the weight matrices pre-transposed (b1t
// is b1ᵀ, b2t is b2ᵀ). Transposing is a pure data relayout — it changes
// which float is loaded when, never what is multiplied or in which order —
// so the result is bit-identical to the legacy sequence MatMulInto(z, a1,
// b1); MatMulInto(zh, a2, b2); AddInPlace(z, zh); plus a broadcast bias
// add: per element, each product keeps its own ascending-k accumulator
// from a +0 start and the three terms combine left to right exactly once.
// dst must not alias any input.
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
// to MatMulInto.
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
// stay hot across all batch rows. Bit-identical to MatMulAddBiasInto for
// every shape.
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
