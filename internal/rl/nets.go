package rl

import (
	"fmt"
	"math/rand"

	"head/internal/nn"
	"head/internal/tensor"
)

// XNet is the deterministic action-parameter network x(s, ·; θx): it maps
// an augmented state to one continuous acceleration per discrete behavior,
// each bounded to [−a′, a′] by a scaled Tanh (Equation (25)).
//
// Forward is one pass over a slice of states: every network here is a
// composition of row-independent layers, so row e of the output is
// bit-identical whether states[e] runs alone or stacked with others. A
// single decision is the one-row case. The returned matrices live in the
// network's workspace and are valid until its next Forward.
type XNet interface {
	nn.Module
	// Forward returns the B×3 acceleration matrix x_out, one row per state.
	Forward(states [][]float64) *tensor.Matrix
	// Backward accumulates parameter gradients from the loss gradient
	// with respect to the last Forward's x_out.
	Backward(d *tensor.Matrix)
}

// QNet is the action-value network Q(s, ·, x_out; θQ): it maps the
// augmented state and the action-parameter vector to one Q value per
// discrete behavior (Equation (27)). Forward follows XNet's batching
// contract, with xout holding one action-parameter row per state.
type QNet interface {
	nn.Module
	// Forward returns the B×3 Q-value matrix, one row per state.
	Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix
	// Backward accumulates parameter gradients and returns the gradient
	// with respect to x_out (needed for the actor loss L3).
	Backward(d *tensor.Matrix) *tensor.Matrix
}

// viewInto repoints a caller-owned matrix header at a flat slice, the
// zero-allocation counterpart of tensor.FromSlice for the hot path. The
// view shares data with the slice and is valid while the slice is.
func viewInto(m *tensor.Matrix, rows, cols int, data []float64) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, data[:rows*cols]
	return m
}

// checkStates panics unless every state has the spec's flattened width.
func checkStates(spec StateSpec, states [][]float64) {
	for e, s := range states {
		if len(s) != spec.Dim() {
			panic(fmt.Sprintf("rl: state %d has %d scalars, want %d", e, len(s), spec.Dim()))
		}
	}
}

// gatherSplit stacks B augmented states into the h and f block matrices of
// the branched processing: state e's NumH current-state rows land at rows
// [e·NumH, (e+1)·NumH) of hAll and its NumF future-state rows at the
// matching block of fAll.
func gatherSplit(spec StateSpec, states [][]float64, hAll, fAll *tensor.Matrix) {
	checkStates(spec, states)
	hl := spec.HLen()
	fl := spec.Dim() - hl
	for e, s := range states {
		copy(hAll.Data[e*hl:(e+1)*hl], s[:hl])
		copy(fAll.Data[e*fl:(e+1)*fl], s[hl:])
	}
}

// branch is the per-vehicle two-layer ReLU column reducer of Figure 6: it
// maps each state's N×FeatDim block to a 1×N vector by applying a shared
// FeatDim→D→1 MLP to every row.
type branch struct {
	seq          *nn.Sequential
	fview, dview tensor.Matrix // forward/backward reshape headers
}

func newBranch(name string, in, hidden int, rng *rand.Rand) *branch {
	return &branch{seq: nn.NewSequential(
		nn.NewLinear(name+".l1", in, hidden, rng),
		&nn.ReLU{},
		nn.NewLinear(name+".l2", hidden, 1, rng),
		&nn.ReLU{},
	)}
}

func (b *branch) Params() []*nn.Param { return b.seq.Params() }

func (b *branch) setBackend(be tensor.Backend) { b.seq.SetBackend(be) }

// concatParams flattens parameter groups into one exact-capacity slice, so
// Params() can return a construction-time cache that per-step parameter
// walks read without allocating (and that caller appends always copy).
func concatParams(groups ...[]*nn.Param) []*nn.Param {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	ps := make([]*nn.Param, 0, n)
	for _, g := range groups {
		ps = append(ps, g...)
	}
	return ps
}

// forward runs the branch MLP over B stacked blocks of n rows each and
// returns a B×n view of the result: the (B·n)×1 output column is exactly
// the row-major layout of one 1×n vector per state, so the reshape is
// free. The view is valid until the next forward.
func (b *branch) forward(stacked *tensor.Matrix, batch, n int) *tensor.Matrix {
	y := b.seq.Forward(stacked) // (batch·n)×1
	return viewInto(&b.fview, batch, n, y.Data)
}

// backward takes the B×n gradient of forward's output back through the
// same free reshape.
func (b *branch) backward(d *tensor.Matrix) *tensor.Matrix {
	return b.seq.Backward(viewInto(&b.dview, d.Rows*d.Cols, 1, d.Data))
}

// BranchedX is BP-DQN's x network (Figure 6, left): separate computational
// branches for hᵗ and f̂ᵗ⁺¹ merged by a Tanh-bounded linear head.
type BranchedX struct {
	spec    StateSpec
	aMax    float64
	hBranch *branch
	fBranch *branch
	merge   *nn.Linear
	tanh    *nn.Tanh
	ws      tensor.Workspace
	params  []*nn.Param
}

// NewBranchedX builds the branched x network with hidden width d.
func NewBranchedX(spec StateSpec, d int, aMax float64, rng *rand.Rand) *BranchedX {
	x := &BranchedX{
		spec:    spec,
		aMax:    aMax,
		hBranch: newBranch("bpx.h", spec.FeatDim, d, rng),
		fBranch: newBranch("bpx.f", spec.FeatDim, d, rng),
		merge:   nn.NewLinear("bpx.merge", spec.NumH+spec.NumF, NumBehaviors, rng),
		tanh:    &nn.Tanh{},
	}
	x.params = concatParams(x.hBranch.Params(), x.fBranch.Params(), x.merge.Params())
	return x
}

// Params implements nn.Module. Prebuilt at construction (h branch, f
// branch, merge — the serialization order) so parameter walks allocate
// nothing.
func (x *BranchedX) Params() []*nn.Param { return x.params }

// SetBackend routes the forward products of both branches, the merge head,
// and the bounding Tanh through be. Backward stays float64.
func (x *BranchedX) SetBackend(be tensor.Backend) {
	x.hBranch.setBackend(be)
	x.fBranch.setBackend(be)
	x.merge.SetBackend(be)
	x.tanh.SetBackend(be)
}

// Forward implements XNet.
func (x *BranchedX) Forward(states [][]float64) *tensor.Matrix {
	B := len(states)
	nh, nf := x.spec.NumH, x.spec.NumF
	x.ws.Reset()
	hAll := x.ws.Get(B*nh, x.spec.FeatDim)
	fAll := x.ws.Get(B*nf, x.spec.FeatDim)
	gatherSplit(x.spec, states, hAll, fAll)
	hv := x.hBranch.forward(hAll, B, nh)
	fv := x.fBranch.forward(fAll, B, nf)
	cat := x.ws.Get(B, nh+nf)
	tensor.ConcatColsInto(cat, hv, fv)
	y := x.tanh.Forward(x.merge.Forward(cat))
	out := x.ws.Get(B, NumBehaviors)
	tensor.ScaleInto(out, y, x.aMax)
	return out
}

// Backward implements XNet.
func (x *BranchedX) Backward(d *tensor.Matrix) {
	sd := x.ws.Get(d.Rows, d.Cols)
	tensor.ScaleInto(sd, d, x.aMax)
	dy := x.tanh.Backward(sd)
	dcat := x.merge.Backward(dy)
	dh := x.ws.Get(d.Rows, x.spec.NumH)
	tensor.SliceColsInto(dh, dcat, 0)
	df := x.ws.Get(d.Rows, x.spec.NumF)
	tensor.SliceColsInto(df, dcat, x.spec.NumH)
	x.hBranch.backward(dh)
	x.fBranch.backward(df)
}

// BranchedQ is BP-DQN's Q network (Figure 6, right): three branches for
// hᵗ, f̂ᵗ⁺¹ and x_out merged by a linear head into three Q values.
type BranchedQ struct {
	spec    StateSpec
	hBranch *branch
	fBranch *branch
	xBranch *nn.Sequential
	merge   *nn.Linear
	ws      tensor.Workspace
	params  []*nn.Param
}

// NewBranchedQ builds the branched Q network with hidden width d.
func NewBranchedQ(spec StateSpec, d int, rng *rand.Rand) *BranchedQ {
	q := &BranchedQ{
		spec:    spec,
		hBranch: newBranch("bpq.h", spec.FeatDim, d, rng),
		fBranch: newBranch("bpq.f", spec.FeatDim, d, rng),
		xBranch: nn.NewSequential(
			nn.NewLinear("bpq.x1", NumBehaviors, d, rng),
			&nn.ReLU{},
			nn.NewLinear("bpq.x2", d, NumBehaviors, rng),
			&nn.ReLU{},
		),
		merge: nn.NewLinear("bpq.merge", spec.NumH+spec.NumF+NumBehaviors, NumBehaviors, rng),
	}
	q.params = concatParams(q.hBranch.Params(), q.fBranch.Params(), q.xBranch.Params(), q.merge.Params())
	return q
}

// Params implements nn.Module. Prebuilt at construction (h branch, f
// branch, x branch, merge — the serialization order) so parameter walks
// allocate nothing.
func (q *BranchedQ) Params() []*nn.Param { return q.params }

// SetBackend routes the forward products of all three branches and the
// merge head through be. Backward stays float64.
func (q *BranchedQ) SetBackend(be tensor.Backend) {
	q.hBranch.setBackend(be)
	q.fBranch.setBackend(be)
	q.xBranch.SetBackend(be)
	q.merge.SetBackend(be)
}

// Forward implements QNet.
func (q *BranchedQ) Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix {
	B := len(states)
	nh, nf := q.spec.NumH, q.spec.NumF
	q.ws.Reset()
	hAll := q.ws.Get(B*nh, q.spec.FeatDim)
	fAll := q.ws.Get(B*nf, q.spec.FeatDim)
	gatherSplit(q.spec, states, hAll, fAll)
	hv := q.hBranch.forward(hAll, B, nh)
	fv := q.fBranch.forward(fAll, B, nf)
	xv := q.xBranch.Forward(xout)
	cat := q.ws.Get(B, nh+nf+NumBehaviors)
	for e := 0; e < B; e++ {
		row := cat.Row(e)
		copy(row[:nh], hv.Row(e))
		copy(row[nh:nh+nf], fv.Row(e))
		copy(row[nh+nf:], xv.Row(e))
	}
	return q.merge.Forward(cat)
}

// Backward implements QNet.
func (q *BranchedQ) Backward(d *tensor.Matrix) *tensor.Matrix {
	dcat := q.merge.Backward(d)
	dh := q.ws.Get(d.Rows, q.spec.NumH)
	tensor.SliceColsInto(dh, dcat, 0)
	df := q.ws.Get(d.Rows, q.spec.NumF)
	tensor.SliceColsInto(df, dcat, q.spec.NumH)
	dx := q.ws.Get(d.Rows, NumBehaviors)
	tensor.SliceColsInto(dx, dcat, q.spec.NumH+q.spec.NumF)
	q.hBranch.backward(dh)
	q.fBranch.backward(df)
	return q.xBranch.Backward(dx)
}

// SharedX is vanilla P-DQN's x network: one MLP over the flattened state,
// sharing weights across the differently scaled input groups (the design
// BP-DQN's branches fix).
type SharedX struct {
	spec StateSpec
	aMax float64
	mlp  *nn.Sequential
	tanh *nn.Tanh
	ws   tensor.Workspace
}

// NewSharedX builds the single-branch x network with hidden width h.
func NewSharedX(spec StateSpec, h int, aMax float64, rng *rand.Rand) *SharedX {
	return &SharedX{
		spec: spec,
		aMax: aMax,
		mlp: nn.NewSequential(
			nn.NewLinear("px.l1", spec.Dim(), h, rng),
			&nn.ReLU{},
			nn.NewLinear("px.l2", h, h, rng),
			&nn.ReLU{},
			nn.NewLinear("px.l3", h, NumBehaviors, rng),
		),
		tanh: &nn.Tanh{},
	}
}

// Params implements nn.Module.
func (x *SharedX) Params() []*nn.Param { return x.mlp.Params() }

// SetBackend routes the MLP products and the bounding Tanh through be.
func (x *SharedX) SetBackend(be tensor.Backend) {
	x.mlp.SetBackend(be)
	x.tanh.SetBackend(be)
}

// Forward implements XNet.
func (x *SharedX) Forward(states [][]float64) *tensor.Matrix {
	checkStates(x.spec, states)
	B := len(states)
	x.ws.Reset()
	in := x.ws.Get(B, x.spec.Dim())
	for e, s := range states {
		copy(in.Row(e), s)
	}
	y := x.tanh.Forward(x.mlp.Forward(in))
	out := x.ws.Get(B, NumBehaviors)
	tensor.ScaleInto(out, y, x.aMax)
	return out
}

// Backward implements XNet.
func (x *SharedX) Backward(d *tensor.Matrix) {
	sd := x.ws.Get(d.Rows, d.Cols)
	tensor.ScaleInto(sd, d, x.aMax)
	x.mlp.Backward(x.tanh.Backward(sd))
}

// SharedQ is vanilla P-DQN's Q network: one MLP over the concatenated
// state and action parameters.
type SharedQ struct {
	spec StateSpec
	mlp  *nn.Sequential
	ws   tensor.Workspace
}

// NewSharedQ builds the single-branch Q network with hidden width h.
func NewSharedQ(spec StateSpec, h int, rng *rand.Rand) *SharedQ {
	return &SharedQ{
		spec: spec,
		mlp: nn.NewSequential(
			nn.NewLinear("pq.l1", spec.Dim()+NumBehaviors, h, rng),
			&nn.ReLU{},
			nn.NewLinear("pq.l2", h, h, rng),
			&nn.ReLU{},
			nn.NewLinear("pq.l3", h, NumBehaviors, rng),
		),
	}
}

// Params implements nn.Module.
func (q *SharedQ) Params() []*nn.Param { return q.mlp.Params() }

// SetBackend routes the MLP products through be.
func (q *SharedQ) SetBackend(be tensor.Backend) { q.mlp.SetBackend(be) }

// Forward implements QNet.
func (q *SharedQ) Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix {
	checkStates(q.spec, states)
	B := len(states)
	q.ws.Reset()
	in := q.ws.Get(B, q.spec.Dim()+NumBehaviors)
	for e, s := range states {
		row := in.Row(e)
		copy(row[:len(s)], s)
		copy(row[len(s):], xout.Row(e))
	}
	return q.mlp.Forward(in)
}

// Backward implements QNet.
func (q *SharedQ) Backward(d *tensor.Matrix) *tensor.Matrix {
	din := q.mlp.Backward(d)
	dx := q.ws.Get(d.Rows, NumBehaviors)
	tensor.SliceColsInto(dx, din, din.Cols-NumBehaviors)
	return dx
}
