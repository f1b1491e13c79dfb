package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestBlockedBitIdentity is the contract test for the batched execution
// engine's kernels: the register-tiled and dot-kernel matmul variants must
// match MatMulInto bit-for-bit across random shapes (crossing the 8- and
// 4-wide column-block boundaries), with dst pre-filled with garbage to
// catch any assumption of a zeroed destination.
func TestBlockedBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	garbage := func(rows, cols int) *Matrix {
		g := New(rows, cols)
		for i := range g.Data {
			g.Data[i] = math.NaN()
		}
		return g
	}
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(25)
		k := 1 + rng.Intn(13)
		c := 1 + rng.Intn(21)
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		bias := randMat(rng, 1, c)
		want := New(r, c)
		MatMulInto(want, a, b)
		wantBias := New(r, c)
		MatMulAddBiasInto(wantBias, a, b, bias)

		got := garbage(r, c)
		MatMulBlockedInto(got, a, b)
		if !bitsEqual(want, got) {
			t.Fatalf("trial %d: MatMulBlockedInto differs from MatMulInto for %dx%d·%dx%d", trial, r, k, k, c)
		}
		got = garbage(r, c)
		MatMulAddBiasBlockedInto(got, a, b, bias)
		if !bitsEqual(wantBias, got) {
			t.Fatalf("trial %d: MatMulAddBiasBlockedInto differs from MatMulAddBiasInto for %dx%d·%dx%d", trial, r, k, k, c)
		}
		k2 := 1 + rng.Intn(13)
		a2 := randMat(rng, r, k2)
		b2 := randMat(rng, k2, c)
		// Reference order: two independent full sums, added once, bias last
		// — exactly the serial LSTM pre-activation sequence.
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
		got = garbage(r, c)
		MatMulDualAddBiasBlockedInto(got, a, b, a2, b2, bias)
		if !bitsEqual(wantDual, got) {
			t.Fatalf("trial %d: MatMulDualAddBiasBlockedInto differs from the serial sequence for %dx%d·%dx%d + %dx%d·%dx%d",
				trial, r, k, k, c, r, k2, k2, c)
		}
		// The transposed-weight dot kernel must agree too; transposing is a
		// pure relayout, so the same reference applies.
		bT := New(c, k)
		TransposeInto(bT, b)
		b2T := New(c, k2)
		TransposeInto(b2T, b2)
		got = garbage(r, c)
		MatMulDotInto(got, a, bT)
		if !bitsEqual(want, got) {
			t.Fatalf("trial %d: MatMulDotInto differs from MatMulInto for %dx%d·%dx%d", trial, r, k, k, c)
		}
		got = garbage(r, c)
		MatMulAddBiasDotInto(got, a, bT, bias)
		if !bitsEqual(wantBias, got) {
			t.Fatalf("trial %d: MatMulAddBiasDotInto differs from MatMulAddBiasInto for %dx%d·%dx%d", trial, r, k, k, c)
		}
		got = garbage(r, c)
		MatMulDualAddBiasDotInto(got, a, bT, a2, b2T, bias)
		if !bitsEqual(wantDual, got) {
			t.Fatalf("trial %d: MatMulDualAddBiasDotInto differs from the serial sequence for %dx%d·%dx%d + %dx%d·%dx%d",
				trial, r, k, k, c, r, k2, k2, c)
		}
	}
}

// TestBlockedNaNPropagation mirrors TestMatMulNaNPropagation: the blocked
// kernels must form every product, so a NaN operand against an explicit
// zero still poisons the destination exactly like MatMulInto.
func TestBlockedNaNPropagation(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	b := FromSlice(2, 1, []float64{math.NaN(), 2})
	want := New(1, 1)
	MatMulInto(want, a, b)
	got := New(1, 1)
	MatMulBlockedInto(got, a, b)
	if !bitsEqual(want, got) {
		t.Fatalf("MatMulBlockedInto NaN handling differs: want %v got %v", want.Data, got.Data)
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
	b := New(3, 4)
	expectPanic("inner mismatch", func() { MatMulBlockedInto(New(2, 4), a, New(2, 4)) })
	expectPanic("dst shape", func() { MatMulBlockedInto(New(3, 4), a, b) })
	expectPanic("dst aliases a", func() { MatMulBlockedInto(a, a, b) })
	expectPanic("bias shape", func() { MatMulAddBiasBlockedInto(New(2, 4), a, b, New(1, 3)) })
}
