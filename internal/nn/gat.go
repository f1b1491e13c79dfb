package nn

import (
	"math"
	"math/rand"

	"head/internal/tensor"
)

// GAT is the sharing graph attention mechanism of Equations (10)–(11): for
// every target node i it computes importance scores over a neighborhood
// (the node itself plus its surrounding nodes) via
//
//	e_ij = LeakyReLU(φ2 · [φ1·h_i ‖ φ1·h_j])
//	α_ij = softmax_j(e_ij)
//	h'_i = Σ_j α_ij · (φ3·h_j)
//
// and returns the updated feature vector of every target. One GAT instance
// is shared across all spatial graphs of the spatial-temporal graph.
type GAT struct {
	In, AttnDim, Out int
	// Residual adds the target's own transformed features φ3·h_i to the
	// attention-weighted aggregation. Pure softmax aggregation is a
	// convex combination and cannot preserve the target's exact state —
	// which a one-step regression task needs — so LST-GAT enables the
	// standard residual connection.
	Residual bool
	// Uniform replaces the learned attention with mean aggregation
	// (α = 1/|N(i)|), the ablation of the importance-score mechanism.
	Uniform bool
	Phi1    *Param // In×AttnDim, feature transform for scoring
	Phi2    *Param // 1×2AttnDim, attention vector
	Phi3    *Param // In×Out, feature transform for aggregation

	// caches; matrices live in ws and stay valid until the next Forward
	nodes     *tensor.Matrix
	targets   []int
	neighbors [][]int
	u         *tensor.Matrix // nodes·Phi1
	w         *tensor.Matrix // nodes·Phi3
	alphas    [][]float64    // per target, per neighbor
	preact    [][]float64    // pre-LeakyReLU scores
	dAlpha    []float64
	ws        tensor.Workspace
	params    []*Param
	be        tensor.Backend // nil means tensor.F64
}

// NewGAT returns a Xavier-initialized graph attention layer mapping In-dim
// node features to Out-dim target features through an AttnDim-dim scoring
// space.
func NewGAT(name string, in, attnDim, out int, rng *rand.Rand) *GAT {
	g := &GAT{
		In:      in,
		AttnDim: attnDim,
		Out:     out,
		Phi1:    NewParam(name+".phi1", in, attnDim),
		Phi2:    NewParam(name+".phi2", 1, 2*attnDim),
		Phi3:    NewParam(name+".phi3", in, out),
	}
	xavier(g.Phi1, rng, in, attnDim)
	xavier(g.Phi2, rng, 2*attnDim, 1)
	xavier(g.Phi3, rng, in, out)
	g.params = []*Param{g.Phi1, g.Phi2, g.Phi3}
	return g
}

// Params implements Module. Prebuilt with len == cap at construction so
// per-step parameter walks allocate nothing.
func (g *GAT) Params() []*Param { return g.params }

// Share returns a new GAT that shares g's parameters (values and gradient
// accumulators) but has independent forward caches, so the same attention
// weights can be applied to several graphs within one backward pass — the
// paper's "sharing attention mechanism" across the spatial graphs of the
// spatial-temporal graph.
func (g *GAT) Share() *GAT {
	s := &GAT{In: g.In, AttnDim: g.AttnDim, Out: g.Out, Residual: g.Residual,
		Uniform: g.Uniform, Phi1: g.Phi1, Phi2: g.Phi2, Phi3: g.Phi3,
		be: g.be}
	s.params = []*Param{s.Phi1, s.Phi2, s.Phi3}
	return s
}

// SetBackend routes the node feature transforms (nodes·φ1, nodes·φ3)
// through be (nil restores the default f64 backend). The per-target
// attention loop and Backward stay float64.
func (g *GAT) SetBackend(be tensor.Backend) { g.be = be }

// Alphas returns the normalized attention weights of the most recent
// Forward: one row per target, one weight per neighbor (uniform 1/|N(i)|
// in Uniform mode). The rows alias the forward cache — copy before
// retaining past the next Forward. Nil before the first Forward.
func (g *GAT) Alphas() [][]float64 { return g.alphas }

// Forward aggregates neighborhoods. nodes is N×In; targets selects the
// target node indices; neighbors[i] lists the node indices attended by
// targets[i] and must include the target itself (the self-loop edge ③ of
// the paper's graph construction). The result has one row per target.
//
// Several graphs batch by concatenating their node matrices and offsetting
// targets/neighbors by each graph's node base: the node transforms are
// row-independent and the attention loop reads only a target's own
// neighborhood, so every graph's rows equal its own Forward bit for bit.
func (g *GAT) Forward(nodes *tensor.Matrix, targets []int, neighbors [][]int) *tensor.Matrix {
	if len(targets) != len(neighbors) {
		panic("nn: GAT targets/neighbors length mismatch")
	}
	g.nodes, g.targets, g.neighbors = nodes, targets, neighbors
	g.ws.Reset()
	g.u = g.ws.Get(nodes.Rows, g.AttnDim)
	g.w = g.ws.Get(nodes.Rows, g.Out)
	be := backendOr(g.be)
	be.MatMul(&g.ws, g.u, nodes, g.Phi1.H())
	be.MatMul(&g.ws, g.w, nodes, g.Phi3.H())
	D := g.AttnDim
	phi2a := g.Phi2.W.Data[:D]
	phi2b := g.Phi2.W.Data[D:]
	out := g.ws.GetZero(len(targets), g.Out)
	g.alphas = growFloatRows(g.alphas, len(targets))
	g.preact = growFloatRows(g.preact, len(targets))
	for ti, t := range targets {
		nbrs := neighbors[ti]
		scores := growFloats(g.alphas[ti], len(nbrs))
		pre := growFloats(g.preact[ti], len(nbrs))
		ut := g.u.Row(t)
		base := 0.0
		for d, v := range ut {
			base += phi2a[d] * v
		}
		maxS := math.Inf(-1)
		for k, j := range nbrs {
			z := base
			uj := g.u.Row(j)
			for d, v := range uj {
				z += phi2b[d] * v
			}
			pre[k] = z
			if z <= 0 {
				z *= LeakyReLUSlope
			}
			scores[k] = z
			if z > maxS {
				maxS = z
			}
		}
		sum := 0.0
		for k := range scores {
			scores[k] = math.Exp(scores[k] - maxS)
			sum += scores[k]
		}
		if g.Uniform {
			for k := range scores {
				scores[k] = 1
			}
			sum = float64(len(scores))
		}
		orow := out.Row(ti)
		for k, j := range nbrs {
			a := scores[k] / sum
			scores[k] = a
			wj := g.w.Row(j)
			for d, v := range wj {
				orow[d] += a * v
			}
		}
		if g.Residual {
			wt := g.w.Row(t)
			for d, v := range wt {
				orow[d] += v
			}
		}
		g.alphas[ti] = scores
		g.preact[ti] = pre
	}
	return out
}

// ForwardBatch is Forward. It exists only as the entry point the
// repository benchmark's layer ledger times; nothing else calls it.
func (g *GAT) ForwardBatch(nodes *tensor.Matrix, targets []int, neighbors [][]int) *tensor.Matrix {
	return g.Forward(nodes, targets, neighbors)
}

// Backward propagates dOut (len(targets)×Out) to parameter gradients and
// returns the gradient with respect to the node feature matrix.
func (g *GAT) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	N := g.nodes.Rows
	D := g.AttnDim
	dNodes := g.ws.GetZero(N, g.In)
	du := g.ws.GetZero(N, D)     // grad wrt u = nodes·Phi1
	dw := g.ws.GetZero(N, g.Out) // grad wrt w = nodes·Phi3
	phi2a := g.Phi2.W.Data[:D]
	phi2b := g.Phi2.W.Data[D:]
	dphi2 := g.Phi2.Grad.Data
	for ti, t := range g.targets {
		nbrs := g.neighbors[ti]
		alphas := g.alphas[ti]
		pre := g.preact[ti]
		drow := dOut.Row(ti)
		if g.Residual {
			dwt := dw.Row(t)
			for d, gv := range drow {
				dwt[d] += gv
			}
		}
		// dα_k = dOut_i · w_j  and  dw_j += α_k · dOut_i
		dAlpha := growFloats(g.dAlpha, len(nbrs))
		g.dAlpha = dAlpha
		for k, j := range nbrs {
			wj := g.w.Row(j)
			dwj := dw.Row(j)
			a := alphas[k]
			s := 0.0
			for d, gv := range drow {
				s += gv * wj[d]
				dwj[d] += a * gv
			}
			dAlpha[k] = s
		}
		// softmax backward: de_k = α_k (dα_k − Σ_m α_m dα_m). Uniform
		// aggregation has no attention gradient.
		inner := 0.0
		for k := range nbrs {
			inner += alphas[k] * dAlpha[k]
		}
		ut := g.u.Row(t)
		dut := du.Row(t)
		for k, j := range nbrs {
			de := alphas[k] * (dAlpha[k] - inner)
			if g.Uniform {
				de = 0
			}
			// LeakyReLU backward
			dz := de
			if pre[k] <= 0 {
				dz *= LeakyReLUSlope
			}
			uj := g.u.Row(j)
			duj := du.Row(j)
			for d := 0; d < D; d++ {
				dphi2[d] += dz * ut[d]
				dphi2[D+d] += dz * uj[d]
				dut[d] += dz * phi2a[d]
				duj[d] += dz * phi2b[d]
			}
		}
	}
	// u = nodes·Phi1 ⇒ dPhi1 += nodesᵀ·du, dNodes += du·Phi1ᵀ. Each
	// product is materialized in scratch before accumulating so every
	// element receives one complete sum, matching the allocating chain.
	dPhi1 := g.ws.Get(g.In, D)
	tensor.MatMulTransAInto(dPhi1, g.nodes, du)
	tensor.AddInPlace(g.Phi1.Grad, dPhi1)
	dn1 := g.ws.Get(N, g.In)
	tensor.MatMulTransBInto(dn1, du, g.Phi1.W)
	tensor.AddInPlace(dNodes, dn1)
	// w = nodes·Phi3 ⇒ dPhi3 += nodesᵀ·dw, dNodes += dw·Phi3ᵀ
	dPhi3 := g.ws.Get(g.In, g.Out)
	tensor.MatMulTransAInto(dPhi3, g.nodes, dw)
	tensor.AddInPlace(g.Phi3.Grad, dPhi3)
	dn3 := g.ws.Get(N, g.In)
	tensor.MatMulTransBInto(dn3, dw, g.Phi3.W)
	tensor.AddInPlace(dNodes, dn3)
	return dNodes
}
