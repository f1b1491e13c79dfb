package nn

import (
	"math"
	"math/rand"

	"head/internal/tensor"
)

// LSTM is a standard long short-term memory recurrent layer (Hochreiter &
// Schmidhuber) processing a sequence of batch matrices. Gate weights are
// packed input/forget/cell/output side by side in 4H-wide matrices. The
// initial hidden and cell states are zero, matching Equation (12)'s
// convention that h defaults to zeros at τ = t−z+1.
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H input weights
	Wh         *Param // H×4H recurrent weights
	B          *Param // 1×4H bias

	// forward caches, one entry per time step; the matrices live in ws
	// and stay valid until the next Forward resets it
	xs, hs, cs             []*tensor.Matrix
	ig, fg, gg, og, tanhCs []*tensor.Matrix
	dxs                    []*tensor.Matrix
	bhs                    []*tensor.Matrix // ForwardBatch hidden states
	ws                     tensor.Workspace
	params                 []*Param
	be                     tensor.Backend // nil means tensor.F64
}

// NewLSTM returns a Xavier-initialized LSTM with the given input and hidden
// sizes. The forget-gate bias is initialized to 1, the common trick that
// stabilizes early training.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", in, 4*hidden),
		Wh:     NewParam(name+".Wh", hidden, 4*hidden),
		B:      NewParam(name+".b", 1, 4*hidden),
	}
	xavier(l.Wx, rng, in, hidden)
	xavier(l.Wh, rng, hidden, hidden)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Data[j] = 1 // forget gate bias
	}
	l.B.Touch()
	l.params = []*Param{l.Wx, l.Wh, l.B}
	return l
}

// Params implements Module. Prebuilt with len == cap at construction so
// per-step parameter walks allocate nothing.
func (l *LSTM) Params() []*Param { return l.params }

// SetBackend routes the per-step pre-activation products through be (nil
// restores the default f64 backend). The gate nonlinearities and Backward
// stay float64.
func (l *LSTM) SetBackend(be tensor.Backend) { l.be = be }

// Share returns a new LSTM that shares l's parameters (and backend) but
// has independent forward caches, so the same recurrent weights can encode
// several sequences within one backward pass.
func (l *LSTM) Share() *LSTM {
	s := &LSTM{In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B, be: l.be}
	s.params = []*Param{s.Wx, s.Wh, s.B}
	return s
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward runs the LSTM over seq (each element a batch×In matrix for one
// time step) and returns the hidden state batch×Hidden at every step. All
// target vehicles are processed in parallel as rows of the batch, which is
// the batched-sequence parallelism the paper relies on for efficiency.
func (l *LSTM) Forward(seq []*tensor.Matrix) []*tensor.Matrix {
	n := len(seq)
	l.ws.Reset()
	l.xs = append(l.xs[:0], seq...)
	l.hs = growPtrs(l.hs, n)
	l.cs = growPtrs(l.cs, n)
	l.ig = growPtrs(l.ig, n)
	l.fg = growPtrs(l.fg, n)
	l.gg = growPtrs(l.gg, n)
	l.og = growPtrs(l.og, n)
	l.tanhCs = growPtrs(l.tanhCs, n)
	if n == 0 {
		return nil
	}
	batch := seq[0].Rows
	H := l.Hidden
	be := backendOr(l.be)
	hPrev := l.ws.GetZero(batch, H)
	cPrev := l.ws.GetZero(batch, H)
	for t, x := range seq {
		z := l.ws.Get(batch, 4*H)
		be.LSTMPreact(&l.ws, z, x, l.Wx.H(), hPrev, l.Wh.H(), l.B.H())
		i := l.ws.Get(batch, H)
		f := l.ws.Get(batch, H)
		g := l.ws.Get(batch, H)
		o := l.ws.Get(batch, H)
		c := l.ws.Get(batch, H)
		tc := l.ws.Get(batch, H)
		h := l.ws.Get(batch, H)
		for r := 0; r < batch; r++ {
			zr := z.Row(r)
			for j := 0; j < H; j++ {
				iv := sigmoid(zr[j])
				fv := sigmoid(zr[H+j])
				gv := math.Tanh(zr[2*H+j])
				ov := sigmoid(zr[3*H+j])
				cv := fv*cPrev.At(r, j) + iv*gv
				tcv := math.Tanh(cv)
				i.Set(r, j, iv)
				f.Set(r, j, fv)
				g.Set(r, j, gv)
				o.Set(r, j, ov)
				c.Set(r, j, cv)
				tc.Set(r, j, tcv)
				h.Set(r, j, ov*tcv)
			}
		}
		l.ig[t], l.fg[t], l.gg[t], l.og[t] = i, f, g, o
		l.cs[t], l.tanhCs[t], l.hs[t] = c, tc, h
		hPrev, cPrev = h, c
	}
	return l.hs
}

// ForwardBatch is the cache-free inference pass: the same per-step
// pre-activation and gate formulas as Forward, in the same order, so the
// hidden states are bit-identical to Forward's, but the six per-element
// backward caches are skipped entirely. It shares Forward's workspace and
// resets it, invalidating the previous pass's caches; Backward must not
// follow a ForwardBatch, and the caches are cleared so it returns nil
// instead of stale gradients.
func (l *LSTM) ForwardBatch(seq []*tensor.Matrix) []*tensor.Matrix {
	n := len(seq)
	l.ws.Reset()
	l.xs = l.xs[:0] // inference-only: poison Backward
	l.bhs = growPtrs(l.bhs, n)
	if n == 0 {
		return nil
	}
	batch := seq[0].Rows
	H := l.Hidden
	be := backendOr(l.be)
	hPrev := l.ws.GetZero(batch, H)
	cPrev := l.ws.GetZero(batch, H)
	for t, x := range seq {
		z := l.ws.Get(batch, 4*H)
		be.LSTMPreact(&l.ws, z, x, l.Wx.H(), hPrev, l.Wh.H(), l.B.H())
		c := l.ws.Get(batch, H)
		h := l.ws.Get(batch, H)
		for r := 0; r < batch; r++ {
			zr := z.Row(r)
			// One subslice per gate block hoists the zr[g*H+j] address
			// arithmetic and bounds checks out of the element loop.
			zi := zr[:H]
			zf := zr[H : 2*H]
			zg := zr[2*H : 3*H]
			zo := zr[3*H : 4*H]
			cpr := cPrev.Row(r)[:H]
			cr := c.Row(r)[:H]
			hr := h.Row(r)[:H]
			for j := 0; j < H; j++ {
				iv := sigmoid(zi[j])
				fv := sigmoid(zf[j])
				gv := math.Tanh(zg[j])
				ov := sigmoid(zo[j])
				cv := fv*cpr[j] + iv*gv
				cr[j] = cv
				hr[j] = ov * math.Tanh(cv)
			}
		}
		l.bhs[t] = h
		hPrev, cPrev = h, c
	}
	return l.bhs
}

// Backward runs backpropagation through time. dHidden holds the loss
// gradient with respect to the hidden state at each step; nil entries are
// treated as zero (e.g. when the loss only touches the final step).
// Parameter gradients accumulate; the returned slice is the gradient with
// respect to each input step.
func (l *LSTM) Backward(dHidden []*tensor.Matrix) []*tensor.Matrix {
	n := len(l.xs)
	if n == 0 {
		return nil
	}
	batch := l.hs[0].Rows
	H := l.Hidden
	l.dxs = growPtrs(l.dxs, n)
	dhNext := l.ws.GetZero(batch, H)
	dcNext := l.ws.GetZero(batch, H)
	for t := n - 1; t >= 0; t-- {
		dh := dhNext
		if t < len(dHidden) && dHidden[t] != nil {
			sum := l.ws.Get(batch, H)
			tensor.AddInto(sum, dhNext, dHidden[t])
			dh = sum
		}
		i, f, g, o := l.ig[t], l.fg[t], l.gg[t], l.og[t]
		tc := l.tanhCs[t]
		var cPrev *tensor.Matrix
		if t > 0 {
			cPrev = l.cs[t-1]
		} else {
			cPrev = l.ws.GetZero(batch, H)
		}
		dz := l.ws.Get(batch, 4*H)
		dcPrev := l.ws.Get(batch, H)
		for r := 0; r < batch; r++ {
			for j := 0; j < H; j++ {
				dhv := dh.At(r, j)
				ov, tcv := o.At(r, j), tc.At(r, j)
				dc := dcNext.At(r, j) + dhv*ov*(1-tcv*tcv)
				do := dhv * tcv
				iv, fv, gv := i.At(r, j), f.At(r, j), g.At(r, j)
				di := dc * gv
				df := dc * cPrev.At(r, j)
				dg := dc * iv
				dcPrev.Set(r, j, dc*fv)
				dz.Set(r, j, di*iv*(1-iv))
				dz.Set(r, H+j, df*fv*(1-fv))
				dz.Set(r, 2*H+j, dg*(1-gv*gv))
				dz.Set(r, 3*H+j, do*ov*(1-ov))
			}
		}
		dWx := l.ws.Get(l.In, 4*H)
		tensor.MatMulTransAInto(dWx, l.xs[t], dz)
		tensor.AddInPlace(l.Wx.Grad, dWx)
		var hPrev *tensor.Matrix
		if t > 0 {
			hPrev = l.hs[t-1]
		} else {
			hPrev = l.ws.GetZero(batch, H)
		}
		dWh := l.ws.Get(H, 4*H)
		tensor.MatMulTransAInto(dWh, hPrev, dz)
		tensor.AddInPlace(l.Wh.Grad, dWh)
		for r := 0; r < batch; r++ {
			row := dz.Row(r)
			for j, gv := range row {
				l.B.Grad.Data[j] += gv
			}
		}
		dx := l.ws.Get(batch, l.In)
		tensor.MatMulTransBInto(dx, dz, l.Wx.W)
		l.dxs[t] = dx
		dhN := l.ws.Get(batch, H)
		tensor.MatMulTransBInto(dhN, dz, l.Wh.W)
		dhNext = dhN
		dcNext = dcPrev
	}
	return l.dxs
}
