package tensor

import (
	"fmt"
	"math"
)

// Backend is the swappable compute core behind the nn forward passes: the
// matmul family, the tanh activation, and the layout ops the layers route
// through it. Weight-side operands arrive as *Weights handles so a backend
// can compute against whichever cached view (f64 transpose, f32 mirror)
// its kernels want; activations stay float64 Matrix at the seam — the
// interchange type between layers — and a backend stages them into its own
// element type internally, drawing scratch from the caller's Workspace.
//
// Two backends ship:
//
//   - F64 runs the float64 dot-kernel family against cached transposes,
//     bit-identical to the legacy MatMulInto kernel sequences (and so to
//     the pre-backend code), pinned by the golden tests.
//   - F32 stages activations to float32, computes with the blocked f32 dot
//     kernels in into32.go against cached f32 weight mirrors, and widens
//     results back to float64 (exactly — every float32 is representable).
//     Gated by the Table I/III tolerance fences and the benchcheck
//     backend speedup floor, not bit-identity.
//
// Gradients, optimizer state, and every backward pass remain float64
// regardless of backend: only forward products run reduced-precision.
//
// Backends are stateless and safe for concurrent use; all per-call scratch
// lives in the caller's Workspace.
type Backend interface {
	// Name is the registry key recorded in checkpoints, manifests, and
	// config hashes: "f64" or "f32".
	Name() string

	// MatMul writes a·w into dst (the GAT node transforms). Every product
	// below is row-independent, so one call over N stacked rows equals N
	// one-row calls bit for bit.
	MatMul(ws *Workspace, dst, a *Matrix, w *Weights)
	// MatMulAddBias writes a·w + bias into dst — the Linear forward.
	MatMulAddBias(ws *Workspace, dst, a *Matrix, w, bias *Weights)
	// LSTMPreact writes x·wx + h·wh + bias into z — one LSTM step.
	LSTMPreact(ws *Workspace, z, x *Matrix, wx *Weights, h *Matrix, wh, bias *Weights)

	// Tanh writes the element-wise tanh of a into dst at the backend's
	// precision. dst may alias a.
	Tanh(dst, a *Matrix)

	// Layout ops route through the backend so arena and copy traffic can
	// follow the element type; both shipped backends move float64.
	Scale(dst, a *Matrix, s float64)
	ConcatCols(dst, a, b *Matrix)
	SliceCols(dst, a *Matrix, lo int)
}

// F64 is the float64 backend — the golden, bit-identity reference.
var F64 Backend = f64Backend{}

// F32 is the float32 backend — the tolerance-gated fast path.
var F32 Backend = f32Backend{}

// Default returns the backend an empty selection resolves to.
func Default() Backend { return F64 }

// Lookup resolves a backend by name. The empty string selects the default
// (f64) backend, so zero-valued configs keep today's behavior.
func Lookup(name string) (Backend, error) {
	switch name {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return nil, fmt.Errorf("tensor: unknown backend %q (want f64 or f32)", name)
}

// MustLookup is Lookup, panicking on an unknown name. For call sites that
// validated the name at flag-parse time.
func MustLookup(name string) Backend {
	be, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return be
}

// layoutOps holds the element-type-neutral layout kernels both backends
// share: pure float64 data movement on the interchange matrices.
type layoutOps struct{}

func (layoutOps) Scale(dst, a *Matrix, s float64) { ScaleInto(dst, a, s) }
func (layoutOps) ConcatCols(dst, a, b *Matrix)    { ConcatColsInto(dst, a, b) }
func (layoutOps) SliceCols(dst, a *Matrix, lo int) {
	SliceColsInto(dst, a, lo)
}

// --- float64 backend ---

type f64Backend struct{ layoutOps }

func (f64Backend) Name() string { return "f64" }

// The f64 products run the dot kernels against the cached transposes. Per
// element each keeps MatMulInto's ascending-k accumulation from +0, and
// LSTMPreact keeps x·wx and h·wh in separate accumulators added once before
// the bias, so the floats equal the legacy MatMulInto + AddInPlace + bias
// sequence (TestBackendF64BitIdentity).
func (f64Backend) MatMul(ws *Workspace, dst, a *Matrix, w *Weights) {
	MatMulDotInto(dst, a, w.T())
}

func (f64Backend) MatMulAddBias(ws *Workspace, dst, a *Matrix, w, bias *Weights) {
	MatMulAddBiasDotInto(dst, a, w.T(), bias.Mat())
}

func (f64Backend) LSTMPreact(ws *Workspace, z, x *Matrix, wx *Weights, h *Matrix, wh, bias *Weights) {
	MatMulDualAddBiasDotInto(z, x, wx.T(), h, wh.T(), bias.Mat())
}

func (f64Backend) Tanh(dst, a *Matrix) { TanhInto(dst, a) }

// --- float32 backend ---

type f32Backend struct{ layoutOps }

func (f32Backend) Name() string { return "f32" }

// stage32 rounds a into a workspace float32 scratch matrix.
func stage32(ws *Workspace, a *Matrix) *Matrix32 {
	s := ws.Get32(a.Rows, a.Cols)
	Stage32(s, a)
	return s
}

func (f32Backend) MatMul(ws *Workspace, dst, a *Matrix, w *Weights) {
	a32 := stage32(ws, a)
	d32 := ws.Get32(dst.Rows, dst.Cols)
	MatMulDot32Into(d32, a32, w.T32())
	Widen(dst, d32)
}

func (f32Backend) MatMulAddBias(ws *Workspace, dst, a *Matrix, w, bias *Weights) {
	a32 := stage32(ws, a)
	d32 := ws.Get32(dst.Rows, dst.Cols)
	MatMulAddBiasDot32Into(d32, a32, w.T32(), bias.M32())
	Widen(dst, d32)
}

func (f32Backend) LSTMPreact(ws *Workspace, z, x *Matrix, wx *Weights, h *Matrix, wh, bias *Weights) {
	x32 := stage32(ws, x)
	h32 := stage32(ws, h)
	z32 := ws.Get32(z.Rows, z.Cols)
	MatMulDualAddBiasDot32Into(z32, x32, wx.T32(), h32, wh.T32(), bias.M32())
	Widen(z, z32)
}

// Tanh narrows each input to float32, evaluates tanh, and rounds the
// result back to float32 before widening — the value the f32 kernels would
// produce. dst may alias a.
func (f32Backend) Tanh(dst, a *Matrix) {
	checkShape("Tanh", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = float64(float32(math.Tanh(float64(float32(v)))))
	}
}
