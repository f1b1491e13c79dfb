package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestBlockedBitIdentity is the contract test for the dot-kernel family:
// MatMulDotInto, MatMulAddBiasDotInto and MatMulDualAddBiasDotInto must
// match the MatMulInto oracle bit-for-bit across random shapes and the
// edge shapes listed below (one row; every column remainder of the 6- and
// 4-wide blocks), with dst pre-filled with garbage to catch any assumption
// of a zeroed destination.
func TestBlockedBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	garbage := func(rows, cols int) *Matrix {
		g := New(rows, cols)
		for i := range g.Data {
			g.Data[i] = math.NaN()
		}
		return g
	}
	type shape struct{ r, k, c int }
	var shapes []shape
	for trial := 0; trial < 200; trial++ {
		shapes = append(shapes, shape{1 + rng.Intn(25), 1 + rng.Intn(13), 1 + rng.Intn(21)})
	}
	// One row (a single decision) against every c mod 6 remainder, both
	// below and above one full block.
	for c := 1; c <= 17; c++ {
		shapes = append(shapes, shape{1, 1 + rng.Intn(13), c}, shape{3, 1 + rng.Intn(13), c})
	}
	for n, sh := range shapes {
		r, k, c := sh.r, sh.k, sh.c
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		bias := randMat(rng, 1, c)
		want := New(r, c)
		MatMulInto(want, a, b)
		wantBias := New(r, c)
		MatMulAddBiasInto(wantBias, a, b, bias)
		k2 := 1 + rng.Intn(13)
		a2 := randMat(rng, r, k2)
		b2 := randMat(rng, k2, c)
		// Reference order: two independent full sums, added once, bias last
		// — exactly the legacy LSTM pre-activation sequence.
		zh := New(r, c)
		MatMulInto(zh, a2, b2)
		wantDual := New(r, c)
		MatMulInto(wantDual, a, b)
		AddInPlace(wantDual, zh)
		for i := 0; i < r; i++ {
			row := wantDual.Row(i)
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}
		// Transposing is a pure relayout, so the same reference applies.
		bT := New(c, k)
		TransposeInto(bT, b)
		b2T := New(c, k2)
		TransposeInto(b2T, b2)
		got := garbage(r, c)
		MatMulDotInto(got, a, bT)
		if !bitsEqual(want, got) {
			t.Fatalf("shape %d: MatMulDotInto differs from MatMulInto for %dx%d·%dx%d", n, r, k, k, c)
		}
		got = garbage(r, c)
		MatMulAddBiasDotInto(got, a, bT, bias)
		if !bitsEqual(wantBias, got) {
			t.Fatalf("shape %d: MatMulAddBiasDotInto differs from MatMulAddBiasInto for %dx%d·%dx%d", n, r, k, k, c)
		}
		got = garbage(r, c)
		MatMulDualAddBiasDotInto(got, a, bT, a2, b2T, bias)
		if !bitsEqual(wantDual, got) {
			t.Fatalf("shape %d: MatMulDualAddBiasDotInto differs from the legacy sequence for %dx%d·%dx%d + %dx%d·%dx%d",
				n, r, k, k, c, r, k2, k2, c)
		}
	}
}

// TestBlockedNaNPropagation mirrors TestMatMulNaNPropagation: the dot
// kernels must form every product, so a NaN operand against an explicit
// zero still poisons the destination exactly like MatMulInto.
func TestBlockedNaNPropagation(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	b := FromSlice(2, 1, []float64{math.NaN(), 2})
	want := New(1, 1)
	MatMulInto(want, a, b)
	got := New(1, 1)
	MatMulDotInto(got, a, Transpose(b))
	if !bitsEqual(want, got) {
		t.Fatalf("MatMulDotInto NaN handling differs: want %v got %v", want.Data, got.Data)
	}
	if !math.IsNaN(got.At(0, 0)) {
		t.Fatalf("0·NaN product was skipped: got %v", got.At(0, 0))
	}
}

// TestBlockedShapeAndAliasPanics pins the validation behavior to the
// MatMulInto contract.
func TestBlockedShapeAndAliasPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := New(2, 3)
	bt := New(4, 3) // bᵀ of a 3×4 b
	expectPanic("inner mismatch", func() { MatMulDotInto(New(2, 4), a, New(4, 2)) })
	expectPanic("dst shape", func() { MatMulDotInto(New(3, 4), a, bt) })
	expectPanic("dst aliases a", func() { MatMulDotInto(a, a, New(3, 3)) })
	expectPanic("bias shape", func() { MatMulAddBiasDotInto(New(2, 4), a, bt, New(1, 3)) })
	expectPanic("dual outer mismatch", func() {
		MatMulDualAddBiasDotInto(New(2, 4), a, bt, New(3, 3), New(4, 3), New(1, 4))
	})
}
