package nn

import (
	"math/rand"

	"head/internal/tensor"
)

// Layer is a differentiable transformation of a batch matrix. Forward
// caches whatever Backward needs; Backward consumes the gradient of the
// loss with respect to the layer output and returns the gradient with
// respect to the layer input, accumulating parameter gradients as a side
// effect.
type Layer interface {
	Module
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
}

// Linear is a fully connected layer y = x·W + b with W of shape in×out and
// a broadcast bias row b of shape 1×out. Forward output and backward
// scratch come from a per-instance workspace: both are valid until the
// next Forward, and steady-state passes allocate nothing.
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	lastX   *tensor.Matrix
	ws      tensor.Workspace
	params  []*Param
	be      tensor.Backend // nil means tensor.F64
}

// NewLinear returns a Xavier-initialized in→out fully connected layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".W", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
	xavier(l.Weight, rng, in, out)
	l.params = []*Param{l.Weight, l.Bias}
	return l
}

// Params implements Module. The slice is built once at construction so the
// per-step parameter walks (ZeroGrads, clipping, optimizer steps, target
// soft-updates) allocate nothing; it has len == cap, so appending to it
// always copies.
func (l *Linear) Params() []*Param { return l.params }

// SetBackend routes the forward product through be (nil restores the
// default f64 backend). Backward stays float64 regardless.
func (l *Linear) SetBackend(be tensor.Backend) { l.be = be }

// Share returns a new Linear that shares l's parameters (and backend) but
// has an independent forward cache and workspace, so several weight-sharing
// views can run forwards over the same weights concurrently.
func (l *Linear) Share() *Linear {
	s := &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias, be: l.be}
	s.params = []*Param{s.Weight, s.Bias}
	return s
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.lastX = x
	l.ws.Reset()
	y := l.ws.Get(x.Rows, l.Out)
	backendOr(l.be).MatMulAddBias(&l.ws, y, x, l.Weight.H(), l.Bias.H())
	return y
}

// ForwardBatch is Forward. It exists only as the entry point the
// repository benchmark's layer ledger times; nothing else calls it.
func (l *Linear) ForwardBatch(x *tensor.Matrix) *tensor.Matrix { return l.Forward(x) }

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	// dW = xᵀ·dy, db = column sums of dy, dx = dy·Wᵀ. The products are
	// materialized in workspace scratch before accumulating so the grad
	// buffers receive one complete sum per element, exactly like the
	// allocating MatMul(Transpose(…)) chain did.
	dW := l.ws.Get(l.In, l.Out)
	tensor.MatMulTransAInto(dW, l.lastX, dy)
	tensor.AddInPlace(l.Weight.Grad, dW)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j, g := range row {
			l.Bias.Grad.Data[j] += g
		}
	}
	dx := l.ws.Get(dy.Rows, l.In)
	tensor.MatMulTransBInto(dx, dy, l.Weight.W)
	return dx
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask *tensor.Matrix
	ws   tensor.Workspace
}

// Params implements Module.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.ws.Reset()
	r.mask = r.ws.Get(x.Rows, x.Cols)
	y := r.ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask.Data[i] = 1
		} else {
			y.Data[i] = 0
			r.mask.Data[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := r.ws.Get(dy.Rows, dy.Cols)
	tensor.MulInto(dx, dy, r.mask)
	return dx
}

// LeakyReLUSlope is the negative-side slope used by the graph attention
// mechanism, matching the GAT reference implementation.
const LeakyReLUSlope = 0.2

// LeakyReLU is the leaky rectified linear activation with slope
// LeakyReLUSlope on the negative side.
type LeakyReLU struct {
	mask *tensor.Matrix
	ws   tensor.Workspace
}

// Params implements Module.
func (r *LeakyReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *LeakyReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.ws.Reset()
	r.mask = r.ws.Get(x.Rows, x.Cols)
	y := r.ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask.Data[i] = 1
		} else {
			y.Data[i] = LeakyReLUSlope * v
			r.mask.Data[i] = LeakyReLUSlope
		}
	}
	return y
}

// Backward implements Layer.
func (r *LeakyReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := r.ws.Get(dy.Rows, dy.Cols)
	tensor.MulInto(dx, dy, r.mask)
	return dx
}

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	lastY *tensor.Matrix
	ws    tensor.Workspace
	be    tensor.Backend // nil means tensor.F64
}

// Params implements Module.
func (t *Tanh) Params() []*Param { return nil }

// SetBackend evaluates the activation at be's precision. The ReLU family
// has no backend seam: on values widened from f32 products a rectification
// is exact at either precision, but tanh is not.
func (t *Tanh) SetBackend(be tensor.Backend) { t.be = be }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	t.ws.Reset()
	t.lastY = t.ws.Get(x.Rows, x.Cols)
	backendOr(t.be).Tanh(t.lastY, x)
	return t.lastY
}

// Backward implements Layer.
func (t *Tanh) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := t.ws.Get(dy.Rows, dy.Cols)
	for i, g := range dy.Data {
		y := t.lastY.Data[i]
		dx.Data[i] = g * (1 - y*y)
	}
	return dx
}

// Sequential chains layers so that the output of each feeds the next.
type Sequential struct {
	Layers []Layer
	params []*Param
}

// NewSequential returns a Sequential over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	n := 0
	for _, l := range layers {
		n += len(l.Params())
	}
	s.params = make([]*Param, 0, n)
	for _, l := range layers {
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// Params implements Module. Like Linear's, the slice is prebuilt with
// len == cap at construction so per-step parameter walks allocate nothing
// and caller appends always copy.
func (s *Sequential) Params() []*Param { return s.params }

// SetBackend assigns be to every child layer that supports backend
// selection.
func (s *Sequential) SetBackend(be tensor.Backend) {
	for _, l := range s.Layers {
		if bs, ok := l.(backendSettable); ok {
			bs.SetBackend(be)
		}
	}
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// NewMLP builds a Linear→ReLU→…→Linear multilayer perceptron with the given
// layer sizes (sizes[0] is the input width, sizes[len-1] the output width).
// No activation follows the final Linear.
func NewMLP(name string, sizes []int, rng *rand.Rand) *Sequential {
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewLinear(name+itoa(i), sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, &ReLU{})
		}
	}
	return NewSequential(layers...)
}

func itoa(i int) string {
	if i == 0 {
		return ".0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return "." + string(b)
}
