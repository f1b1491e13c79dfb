package nn

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

// numGrad computes the numerical gradient of loss() with respect to every
// parameter of m via central differences and compares it against the
// analytic gradient already accumulated in the params.
func checkGrads(t *testing.T, m Module, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for _, p := range m.Params() {
		for i := range p.W.Data {
			// Every forward reads the cached weight views, so each write to
			// W.Data is followed by a Touch.
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			p.Touch()
			lp := loss()
			p.W.Data[i] = orig - eps
			p.Touch()
			lm := loss()
			p.W.Data[i] = orig
			p.Touch()
			num := (lp - lm) / (2 * eps)
			ana := p.Grad.Data[i]
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", p.Name, i, ana, num)
			}
		}
	}
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 2, 2, rng)
	copy(l.Weight.W.Data, []float64{1, 2, 3, 4})
	copy(l.Bias.W.Data, []float64{10, 20})
	l.Weight.Touch()
	l.Bias.Touch()
	y := l.Forward(tensor.FromSlice(1, 2, []float64{1, 1}))
	want := tensor.FromSlice(1, 2, []float64{14, 26})
	if !tensor.Equal(y, want, 1e-12) {
		t.Errorf("Forward = %v, want %v", y, want)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 3, 2, rng)
	x := tensor.New(4, 3)
	x.RandUniform(rng, 1)
	target := tensor.New(4, 2)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		lv, _ := MSE(l.Forward(x), target)
		return lv
	}
	ZeroGrads(l)
	_, g := MSE(l.Forward(x), target)
	l.Backward(g)
	checkGrads(t, l, loss, 1e-5)
}

func TestActivations(t *testing.T) {
	x := tensor.FromSlice(1, 3, []float64{-2, 0, 3})
	r := (&ReLU{}).Forward(x)
	if !tensor.Equal(r, tensor.FromSlice(1, 3, []float64{0, 0, 3}), 0) {
		t.Errorf("ReLU = %v", r)
	}
	lr := (&LeakyReLU{}).Forward(x)
	if !tensor.Equal(lr, tensor.FromSlice(1, 3, []float64{-0.4, 0, 3}), 1e-12) {
		t.Errorf("LeakyReLU = %v", lr)
	}
	th := (&Tanh{}).Forward(x)
	if math.Abs(th.At(0, 2)-math.Tanh(3)) > 1e-12 {
		t.Errorf("Tanh = %v", th)
	}
}

func TestActivationBackward(t *testing.T) {
	x := tensor.FromSlice(1, 4, []float64{-2, -0.5, 0.5, 3})
	dy := tensor.FromSlice(1, 4, []float64{1, 1, 1, 1})
	relu := &ReLU{}
	relu.Forward(x)
	if got := relu.Backward(dy); !tensor.Equal(got, tensor.FromSlice(1, 4, []float64{0, 0, 1, 1}), 0) {
		t.Errorf("ReLU backward = %v", got)
	}
	lrelu := &LeakyReLU{}
	lrelu.Forward(x)
	if got := lrelu.Backward(dy); !tensor.Equal(got, tensor.FromSlice(1, 4, []float64{0.2, 0.2, 1, 1}), 1e-12) {
		t.Errorf("LeakyReLU backward = %v", got)
	}
	tanh := &Tanh{}
	tanh.Forward(x)
	got := tanh.Backward(dy)
	for j := 0; j < 4; j++ {
		want := 1 - math.Pow(math.Tanh(x.At(0, j)), 2)
		if math.Abs(got.At(0, j)-want) > 1e-12 {
			t.Errorf("Tanh backward[%d] = %g, want %g", j, got.At(0, j), want)
		}
	}
}

func TestMLPLearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP("mlp", []int{1, 16, 16, 1}, rng)
	opt := NewAdam(0.01)
	// Fit y = sin(x) on [-2, 2].
	n := 64
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		xv := -2 + 4*float64(i)/float64(n-1)
		x.Set(i, 0, xv)
		y.Set(i, 0, math.Sin(xv))
	}
	first := 0.0
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		pred := mlp.Forward(x)
		loss, g := MSE(pred, y)
		if epoch == 0 {
			first = loss
		}
		last = loss
		mlp.Backward(g)
		opt.Step(mlp)
	}
	if last > first/10 {
		t.Errorf("MLP did not learn: first loss %g, last loss %g", first, last)
	}
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM("lstm", 3, 5, rng)
	seq := []*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)}
	hs := l.Forward(seq)
	if len(hs) != 2 || hs[0].Rows != 2 || hs[0].Cols != 5 {
		t.Fatalf("Forward shapes: %d steps, %dx%d", len(hs), hs[0].Rows, hs[0].Cols)
	}
	if l.Forward(nil) != nil {
		t.Error("Forward(nil) should return nil")
	}
}

func TestLSTMZeroInputNonZeroOutput(t *testing.T) {
	// With forget bias 1 and zero input the hidden state stays near zero but
	// gates are active; just sanity-check for NaN-free bounded outputs.
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("lstm", 2, 4, rng)
	seq := make([]*tensor.Matrix, 5)
	for i := range seq {
		m := tensor.New(1, 2)
		m.RandUniform(rng, 2)
		seq[i] = m
	}
	hs := l.Forward(seq)
	for _, h := range hs {
		for _, v := range h.Data {
			if math.IsNaN(v) || math.Abs(v) > 1 {
				t.Fatalf("hidden value %g out of (-1, 1)", v)
			}
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM("lstm", 2, 3, rng)
	seq := make([]*tensor.Matrix, 3)
	for i := range seq {
		m := tensor.New(2, 2)
		m.RandUniform(rng, 1)
		seq[i] = m
	}
	target := tensor.New(2, 3)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		hs := l.Forward(seq)
		lv, _ := MSE(hs[len(hs)-1], target)
		return lv
	}
	ZeroGrads(l)
	hs := l.Forward(seq)
	_, g := MSE(hs[len(hs)-1], target)
	dH := make([]*tensor.Matrix, len(hs))
	dH[len(hs)-1] = g
	l.Backward(dH)
	checkGrads(t, l, loss, 1e-4)
}

func TestLSTMInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLSTM("lstm", 2, 3, rng)
	seq := make([]*tensor.Matrix, 2)
	for i := range seq {
		m := tensor.New(1, 2)
		m.RandUniform(rng, 1)
		seq[i] = m
	}
	target := tensor.New(1, 3)
	loss := func() float64 {
		hs := l.Forward(seq)
		lv, _ := MSE(hs[len(hs)-1], target)
		return lv
	}
	hs := l.Forward(seq)
	_, g := MSE(hs[len(hs)-1], target)
	dH := make([]*tensor.Matrix, len(hs))
	dH[len(hs)-1] = g
	dxs := l.Backward(dH)
	const eps = 1e-6
	for tIdx, x := range seq {
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := loss()
			x.Data[i] = orig - eps
			lm := loss()
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[tIdx].Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("dx[%d][%d]: analytic %g vs numeric %g", tIdx, i, dxs[tIdx].Data[i], num)
			}
		}
	}
}

func TestLSTMLearnsSequenceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM("lstm", 1, 8, rng)
	head := NewLinear("head", 8, 1, rng)
	opt := NewAdam(0.02)
	type both struct{ Module }
	mod := struct{ Module }{moduleList{l, head}}
	_ = mod
	first, last := 0.0, 0.0
	for epoch := 0; epoch < 200; epoch++ {
		seq := make([]*tensor.Matrix, 4)
		sum := tensor.New(8, 1)
		for s := range seq {
			m := tensor.New(8, 1)
			for r := 0; r < 8; r++ {
				v := rng.Float64() - 0.5
				m.Set(r, 0, v)
				sum.Set(r, 0, sum.At(r, 0)+v)
			}
			seq[s] = m
		}
		hs := l.Forward(seq)
		pred := head.Forward(hs[len(hs)-1])
		loss, g := MSE(pred, sum)
		if epoch == 0 {
			first = loss
		}
		last = loss
		dh := head.Backward(g)
		dH := make([]*tensor.Matrix, len(hs))
		dH[len(hs)-1] = dh
		l.Backward(dH)
		opt.Step(moduleList{l, head})
	}
	if last > first/4 {
		t.Errorf("LSTM did not learn sequence sum: first %g, last %g", first, last)
	}
}

// moduleList groups modules for a single optimizer step.
type moduleList []Module

func (ml moduleList) Params() []*Param {
	var ps []*Param
	for _, m := range ml {
		ps = append(ps, m.Params()...)
	}
	return ps
}

func TestGATForwardConvexCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGAT("gat", 4, 8, 4, rng)
	// With Phi3 = identity, the output must be a convex combination of the
	// neighborhood's feature rows.
	g.Phi3.W.Zero()
	for i := 0; i < 4; i++ {
		g.Phi3.W.Set(i, i, 1)
	}
	g.Phi3.Touch()
	nodes := tensor.New(3, 4)
	nodes.RandUniform(rng, 1)
	out := g.Forward(nodes, []int{0}, [][]int{{0, 1, 2}})
	for j := 0; j < 4; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for n := 0; n < 3; n++ {
			v := nodes.At(n, j)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if out.At(0, j) < lo-1e-9 || out.At(0, j) > hi+1e-9 {
			t.Errorf("out[%d] = %g outside [%g, %g]", j, out.At(0, j), lo, hi)
		}
	}
}

func TestGATGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGAT("gat", 3, 4, 2, rng)
	nodes := tensor.New(5, 3)
	nodes.RandUniform(rng, 1)
	targets := []int{0, 1}
	neighbors := [][]int{{0, 2, 3}, {1, 3, 4}}
	target := tensor.New(2, 2)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		lv, _ := MSE(g.Forward(nodes, targets, neighbors), target)
		return lv
	}
	ZeroGrads(g)
	_, grad := MSE(g.Forward(nodes, targets, neighbors), target)
	dNodes := g.Backward(grad)
	checkGrads(t, g, loss, 1e-4)
	// Also verify input gradients numerically.
	const eps = 1e-6
	for i := range nodes.Data {
		orig := nodes.Data[i]
		nodes.Data[i] = orig + eps
		lp := loss()
		nodes.Data[i] = orig - eps
		lm := loss()
		nodes.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dNodes.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dNodes[%d]: analytic %g vs numeric %g", i, dNodes.Data[i], num)
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := NewParam("p", 1, 4)
	copy(p.W.Data, []float64{5, -3, 2, 8})
	mod := moduleList{paramModule{p}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		for j, v := range p.W.Data {
			p.Grad.Data[j] = v // gradient of ½‖p‖²
		}
		opt.Step(mod)
	}
	if n := tensor.Norm2(p.W); n > 0.1 {
		t.Errorf("Adam failed to minimize: ‖p‖ = %g", n)
	}
}

func TestSGDMomentumReducesQuadratic(t *testing.T) {
	p := NewParam("p", 1, 2)
	copy(p.W.Data, []float64{4, -4})
	mod := moduleList{paramModule{p}}
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		for j, v := range p.W.Data {
			p.Grad.Data[j] = v
		}
		opt.Step(mod)
	}
	if n := tensor.Norm2(p.W); n > 0.1 {
		t.Errorf("SGD failed to minimize: ‖p‖ = %g", n)
	}
}

type paramModule struct{ p *Param }

func (pm paramModule) Params() []*Param { return []*Param{pm.p} }

func TestCopyAndSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewLinear("a", 2, 2, rng)
	b := NewLinear("b", 2, 2, rng)
	CopyParams(b, a)
	if !tensor.Equal(a.Weight.W, b.Weight.W, 0) {
		t.Fatal("CopyParams did not copy weights")
	}
	a.Weight.W.Fill(1)
	b.Weight.W.Fill(0)
	SoftUpdate(b, a, 0.25)
	for _, v := range b.Weight.W.Data {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("SoftUpdate value %g, want 0.25", v)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 2)
	copy(p.Grad.Data, []float64{3, 4})
	norm := ClipGradNorm(moduleList{paramModule{p}}, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("pre-clip norm = %g, want 5", norm)
	}
	if got := math.Hypot(p.Grad.Data[0], p.Grad.Data[1]); math.Abs(got-1) > 1e-6 {
		t.Errorf("post-clip norm = %g, want 1", got)
	}
	// Disabled clipping leaves grads alone.
	copy(p.Grad.Data, []float64{3, 4})
	ClipGradNorm(moduleList{paramModule{p}}, 0)
	if p.Grad.Data[0] != 3 {
		t.Error("maxNorm<=0 should not clip")
	}
}

func TestMSE(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{1, 3})
	target := tensor.FromSlice(1, 2, []float64{0, 1})
	loss, grad := MSE(pred, target)
	if want := (0.5*1 + 0.5*4) / 2; math.Abs(loss-want) > 1e-12 {
		t.Errorf("MSE loss = %g, want %g", loss, want)
	}
	if !tensor.Equal(grad, tensor.FromSlice(1, 2, []float64{0.5, 1}), 1e-12) {
		t.Errorf("MSE grad = %v", grad)
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear("l", 3, 4, rng)
	if got := CountParams(l); got != 3*4+4 {
		t.Errorf("CountParams = %d, want 16", got)
	}
}
