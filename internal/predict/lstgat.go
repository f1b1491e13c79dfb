package predict

import (
	"math/rand"
	"runtime"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/parallel"
	"head/internal/phantom"
	"head/internal/tensor"
)

// LSTGAT is the paper's Local Spatial-Temporal Graph ATtention model:
// a sharing graph attention mechanism aggregates each spatial graph of the
// spatial-temporal graph (Equations (10)–(11)), an LSTM captures the
// temporal dependencies of the updated target states (Equation (12)), and
// a linear read-out emits the one-step future state of all six targets in
// parallel (Equation (13)).
type LSTGAT struct {
	cfg     LSTGATConfig
	backend string
	gat     *nn.GAT
	gats    []*nn.GAT // per-step weight-sharing views
	lstm    *nn.LSTM
	out     *nn.Linear
	opt     *nn.Adam
	scale   scaler
	z       int
	lastT   int // index of the most recent history step run through forward

	// steady-state scratch: per-step node/input matrices live in ws (valid
	// until the next forward), seq and dHidden reuse their backing arrays.
	ws      tensor.Workspace
	seq     []*tensor.Matrix
	dHidden []*tensor.Matrix

	// encode scratch: offset target/neighbor index views over the
	// concatenated node matrix, reusing their backing arrays across calls,
	// and the one-graph slices Predict and forward pass to it.
	batchTargets []int
	batchNbrs    [][]int
	one          [1]*phantom.Graph
	oneOut       [1]Prediction

	// sharded PredictBatch: weight-sharing views running shards 1..k−1
	// (the model itself runs shard 0), the fork/join that drives them, the
	// current call's arguments, and the request-ordered attention rows of
	// the last sharded call (shardAttn marks them as LastAttention's).
	views     []*LSTGAT
	fan       *parallel.FanOut
	shardGs   []*phantom.Graph
	shardOut  []Prediction
	shards    int
	attn      [][]float64
	shardAttn bool
}

// LSTGATConfig sizes the network. The paper uses Dφ1 = Dφ3 = Dl = 64.
type LSTGATConfig struct {
	AttnDim   int     // Dφ1
	GATOut    int     // Dφ3
	HiddenDim int     // Dl
	Z         int     // historical steps
	LR        float64 // Adam learning rate
	// UniformAttention replaces the learned importance scores with mean
	// aggregation — the ablation of the graph attention mechanism.
	UniformAttention bool
	// Backend names the tensor backend the forward products run on ("" or
	// "f64" for the float64 golden path, "f32" for the float32 fast path).
	// Training gradients and optimizer state stay float64 either way.
	Backend string
}

// DefaultLSTGATConfig returns the paper's dimensions. The learning rate is
// higher than the published 0.001 because the synthetic REAL substitute
// has orders of magnitude fewer optimizer steps per epoch than NGSIM; the
// published rate never leaves the initialization basin at this scale.
func DefaultLSTGATConfig() LSTGATConfig {
	return LSTGATConfig{AttnDim: 64, GATOut: 64, HiddenDim: 64, Z: 5, LR: 0.01}
}

// slotCode returns a static positional code per graph node: the key-area
// slot a surrounder occupies (normalized), or 0 for target nodes. The
// paper's neighborhoods have fixed semantics per slot (slot 2 is always
// the leader, slot 5 always the follower, …) but Equations (7)–(8) carry
// no positional information, so content-based attention cannot tell the
// leader from the follower; the code restores that signal.
var slotCode = func() [phantom.NumNodes]float64 {
	var codes [phantom.NumNodes]float64
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		for j := phantom.Slot(0); j < phantom.NumSlots; j++ {
			codes[phantom.SurrounderNode(i, j)] = float64(j+1) / float64(phantom.NumSlots+1)
		}
	}
	return codes
}()

// gatInDim is the GAT input width: state features plus the slot code.
const gatInDim = phantom.FeatureDim + 1

// NewLSTGAT builds an LST-GAT model.
func NewLSTGAT(cfg LSTGATConfig, rng *rand.Rand) *LSTGAT {
	be := tensor.MustLookup(cfg.Backend)
	gat := nn.NewGAT("lstgat.gat", gatInDim, cfg.AttnDim, cfg.GATOut, rng)
	gat.Residual = true
	gat.Uniform = cfg.UniformAttention
	// Set the backend before taking weight-sharing views: Share copies it.
	gat.SetBackend(be)
	gats := make([]*nn.GAT, cfg.Z)
	for i := range gats {
		gats[i] = gat.Share()
	}
	lstm := nn.NewLSTM("lstgat.lstm", phantom.FeatureDim+cfg.GATOut, cfg.HiddenDim, rng)
	out := nn.NewLinear("lstgat.out", cfg.HiddenDim, OutputDim, rng)
	nn.SetBackend(be, lstm, out)
	return &LSTGAT{
		cfg:     cfg,
		backend: be.Name(),
		gat:     gat,
		gats:    gats,
		lstm:    lstm,
		out:     out,
		opt:     nn.NewAdam(cfg.LR),
		scale:   defaultScaler(),
		z:       cfg.Z,
	}
}

// Name implements Model.
func (m *LSTGAT) Name() string { return "LST-GAT" }

// Backend reports the resolved tensor backend name the forward products
// run on ("f64" when the config left it empty).
func (m *LSTGAT) Backend() string { return m.backend }

// Clone returns an independent copy of the model: identical architecture
// and parameter values, fresh optimizer state and forward caches. Layers
// cache their most recent forward inputs, so one instance must never be
// shared between concurrent Predict or TrainBatch calls — parallel
// evaluation episodes and data-parallel training workers each own a clone.
func (m *LSTGAT) Clone() *LSTGAT {
	c := NewLSTGAT(m.cfg, rand.New(rand.NewSource(0)))
	nn.CopyParams(c, m)
	return c
}

// Replica implements DataParallel.
func (m *LSTGAT) Replica() DataParallel { return m.Clone() }

// Params implements nn.Module.
func (m *LSTGAT) Params() []*nn.Param {
	ps := m.gat.Params()
	ps = append(ps, m.lstm.Params()...)
	ps = append(ps, m.out.Params()...)
	return ps
}

// encode runs the per-step front half of the network over gs and leaves
// the LSTM input sequence in m.seq: per history step the graphs' scaled
// node matrices (with the slot code column) stack into one gather matrix,
// targets and neighbor lists shift by each graph's node base, one
// shared-weight GAT pass aggregates every graph's neighborhoods, and each
// target's LSTM input row concatenates its own scaled state vector with its
// attention aggregation. The pure convex combination of Equation (11)
// cannot isolate the target's own state — its softmax weights sum to one,
// so neighbor content is always injected at full magnitude — and the
// concatenation lets the temporal model weigh raw state against interaction
// context (see BenchmarkAblationAggregator). No row reads another graph's
// rows, so every graph's rows are bit-identical however gs is batched.
func (m *LSTGAT) encode(gs []*phantom.Graph) {
	z := len(gs[0].Steps)
	nodesPer := len(gs[0].Steps[0])
	nTargets := 0
	for _, g := range gs {
		if len(g.Steps) != z {
			panic("predict: batched graphs disagree on history length")
		}
		for _, step := range g.Steps {
			if len(step) != nodesPer {
				panic("predict: batched graphs disagree on node count")
			}
		}
		nTargets += len(g.Targets)
	}
	// Offset target/neighbor indices into the concatenated node matrix.
	if cap(m.batchTargets) < nTargets {
		m.batchTargets = make([]int, nTargets)
	}
	m.batchTargets = m.batchTargets[:nTargets]
	for len(m.batchNbrs) < nTargets {
		m.batchNbrs = append(m.batchNbrs, nil)
	}
	idx := 0
	for e, g := range gs {
		off := e * nodesPer
		for i, t := range g.Targets {
			m.batchTargets[idx] = t + off
			nbrs := g.Neighbors[i]
			dst := m.batchNbrs[idx]
			if cap(dst) < len(nbrs) {
				dst = make([]int, len(nbrs))
			}
			dst = dst[:len(nbrs)]
			for k, j := range nbrs {
				dst[k] = j + off
			}
			m.batchNbrs[idx] = dst
			idx++
		}
	}
	targets := m.batchTargets
	neighbors := m.batchNbrs[:nTargets]

	m.ws.Reset()
	if cap(m.seq) < z {
		m.seq = make([]*tensor.Matrix, z)
	}
	m.seq = m.seq[:z]
	for t := 0; t < z; t++ {
		nodes := m.ws.Get(len(gs)*nodesPer, gatInDim)
		for e, g := range gs {
			base := e * nodesPer
			m.scale.nodesIntoAt(nodes, base, g.Steps[t])
			for n := 0; n < nodesPer; n++ {
				nodes.Row(base + n)[phantom.FeatureDim] = slotCode[n]
			}
		}
		if t >= len(m.gats) {
			// Histories longer than configured get extra weight-sharing
			// views so every step keeps its own backward cache.
			m.gats = append(m.gats, m.gat.Share())
		}
		ctx := m.gats[t].Forward(nodes, targets, neighbors)
		cat := m.ws.Get(nTargets, phantom.FeatureDim+ctx.Cols)
		idx = 0
		for e, g := range gs {
			base := e * nodesPer
			for _, node := range g.Targets {
				row := cat.Row(idx)
				copy(row[:phantom.FeatureDim], nodes.Row(base + node)[:phantom.FeatureDim])
				copy(row[phantom.FeatureDim:], ctx.Row(idx))
				idx++
			}
		}
		m.seq[t] = cat
	}
	m.lastT, m.shardAttn = z-1, false
}

// forward runs the full network over one graph with every layer's backward
// cache filled, returning the scaled 6×3 output. Only training
// (GradBatch) needs it; inference runs forwardBatch.
func (m *LSTGAT) forward(g *phantom.Graph) *tensor.Matrix {
	m.one[0] = g
	m.encode(m.one[:])
	m.one[0] = nil
	hs := m.lstm.Forward(m.seq)
	return m.out.Forward(hs[len(hs)-1])
}

// forwardBatch is the inference pass over several graphs: encode, then the
// cache-free LSTM pass and the read-out over the concatenated target rows.
// Its rows are bit-identical to forward's on each graph (LSTM.ForwardBatch
// runs Forward's arithmetic without the backward caches).
func (m *LSTGAT) forwardBatch(gs []*phantom.Graph) *tensor.Matrix {
	m.encode(gs)
	hs := m.lstm.ForwardBatch(m.seq)
	return m.out.Forward(hs[len(hs)-1])
}

// predictBatch is one batched pass over gs on this instance, unscaling
// gs[i]'s rows into out[i].
func (m *LSTGAT) predictBatch(gs []*phantom.Graph, out []Prediction) {
	y := m.forwardBatch(gs)
	row := 0
	for e, g := range gs {
		for i := range g.Targets {
			out[e][i] = m.scale.unscaleRow(y.Row(row))
			row++
		}
	}
}

// PredictBatch predicts every graph, writing gs[i]'s prediction into
// out[i]. Each prediction is bit-identical to Predict(gs[i]) and to the
// training forward on gs[i] — the batched execution engine's contract,
// gated by TestPredictBatchBitIdentity, TestPredictBatchShardedBitIdentity
// and the experiments golden test.
//
// The graphs split into k = min(GOMAXPROCS, len(gs)) contiguous shards,
// run in one fork/join: the model itself runs shard 0 and lazily built
// weight-sharing views (private caches and workspace, shared parameters)
// run the rest, each as one batched pass over its graphs. No row of the
// batched forward reads another graph's rows, so any split yields the
// same floats. k = 1 (one graph, or GOMAXPROCS = 1) is a single batched
// pass on the calling goroutine.
func (m *LSTGAT) PredictBatch(gs []*phantom.Graph, out []Prediction) {
	if len(gs) == 0 {
		return
	}
	if len(out) < len(gs) {
		panic("predict: PredictBatch out shorter than gs")
	}
	k := min(runtime.GOMAXPROCS(0), len(gs))
	if k == 1 {
		m.predictBatch(gs, out)
		return
	}
	for len(m.views) < k-1 {
		m.views = append(m.views, m.view())
	}
	if m.fan == nil {
		m.fan = parallel.NewFanOut(m.runShard)
	}
	m.shardGs, m.shardOut, m.shards = gs, out, k
	m.fan.Run(k) // re-panics here if a shard panicked, like forwardBatch would
	m.shardGs, m.shardOut = nil, nil
	// Concatenate the shards' final-step attention rows in request order.
	m.attn = m.attn[:0]
	for s := 0; s < k; s++ {
		m.attn = append(m.attn, m.shard(s).LastAttention()...)
	}
	m.shardAttn = true
}

// shard returns the instance that runs shard s.
func (m *LSTGAT) shard(s int) *LSTGAT {
	if s == 0 {
		return m
	}
	return m.views[s-1]
}

// runShard is the fork/join's shard function: graphs [lo, hi) of the
// current PredictBatch call, split as evenly as contiguity allows.
func (m *LSTGAT) runShard(s int) {
	n := len(m.shardGs)
	lo, hi := s*n/m.shards, (s+1)*n/m.shards
	m.shard(s).predictBatch(m.shardGs[lo:hi], m.shardOut[lo:hi])
}

// view returns an inference-only weight-sharing view of m: the same
// parameters (and therefore the same cached weight views) behind private
// layer caches and workspaces, so it can forward concurrently with m.
func (m *LSTGAT) view() *LSTGAT {
	gat := m.gat.Share()
	gats := make([]*nn.GAT, len(m.gats))
	for i := range gats {
		gats[i] = gat.Share()
	}
	return &LSTGAT{
		cfg:     m.cfg,
		backend: m.backend,
		gat:     gat,
		gats:    gats,
		lstm:    m.lstm.Share(),
		out:     m.out.Share(),
		scale:   m.scale,
		z:       m.z,
	}
}

// LastAttention returns the graph-attention weights of the most recent
// prediction's final (decision-relevant) history step: one row per target
// slot, one weight per attended neighbor — after a PredictBatch, every
// graph's rows in request order, so graph i owns rows
// [i·NumSlots, (i+1)·NumSlots). The rows alias the forward caches — copy
// before retaining. Nil before the first Predict.
func (m *LSTGAT) LastAttention() [][]float64 {
	if m.shardAttn {
		return m.attn
	}
	if m.lastT < 0 || m.lastT >= len(m.gats) {
		return nil
	}
	return m.gats[m.lastT].Alphas()
}

// Predict implements Model: the one-graph case of PredictBatch, run on
// the calling goroutine. All six targets are predicted in one pass and the
// steady state allocates nothing.
func (m *LSTGAT) Predict(g *phantom.Graph) Prediction {
	m.one[0] = g
	m.predictBatch(m.one[:], m.oneOut[:])
	m.one[0] = nil
	return m.oneOut[0]
}

// TrainBatch implements Model: masked MSE (Equation (14)) with phantom
// targets excluded, one Adam step per batch.
func (m *LSTGAT) TrainBatch(batch []*ngsim.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	total := m.GradBatch(batch)
	m.ApplyGrads()
	return total / float64(len(batch))
}

// GradBatch implements DataParallel: it zeroes the gradients and
// accumulates fresh ones over the batch without applying them, returning
// the summed (not averaged) sample loss so chunk losses reduce exactly.
func (m *LSTGAT) GradBatch(batch []*ngsim.Sample) float64 {
	nn.ZeroGrads(m)
	total := 0.0
	for _, s := range batch {
		y := m.forward(s.Graph)
		target := m.ws.Get(phantom.NumSlots, OutputDim)
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				// Masked loss: the paper sets the truth to the prediction.
				copy(target.Row(i), y.Row(i))
				continue
			}
			st := m.scale.scaleTruth(s.Truth[i])
			copy(target.Row(i), st[:])
		}
		loss, grad := nn.MSE(y, target)
		total += loss
		dh := m.out.Backward(grad)
		if cap(m.dHidden) < len(s.Graph.Steps) {
			m.dHidden = make([]*tensor.Matrix, len(s.Graph.Steps))
		}
		m.dHidden = m.dHidden[:len(s.Graph.Steps)]
		for i := range m.dHidden {
			m.dHidden[i] = nil
		}
		m.dHidden[len(m.dHidden)-1] = dh
		dxs := m.lstm.Backward(m.dHidden)
		for t, dx := range dxs {
			if t < len(m.gats) {
				dCtx := m.ws.Get(dx.Rows, dx.Cols-phantom.FeatureDim)
				tensor.SliceColsInto(dCtx, dx, phantom.FeatureDim)
				m.gats[t].Backward(dCtx)
			}
		}
	}
	return total
}

// ApplyGrads implements DataParallel: gradient clipping plus one Adam
// step over whatever gradients are currently accumulated.
func (m *LSTGAT) ApplyGrads() {
	nn.ClipGradNorm(m, 5)
	m.opt.Step(m)
}
