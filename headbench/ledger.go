package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"head/internal/head"
	"head/internal/nn"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/serve"
	"head/internal/tensor"
	"head/internal/world"
)

// The traced ledger: the public stages of one served decision, called in
// order on fleet observations and timed one by one, next to the
// Replica.DecideBatch call they make up.

// ledgerTolerancePct bounds |ledger.gap_pct|: the replica-side stage rows
// (phantom build, LST-GAT, state assembly, action selection) must sum to
// serve.replica.decide_us within this share.
const ledgerTolerancePct = 10

// ledgerStages are the timed rows, in call order. The codec and session
// rows run outside the replica; the nn rows re-run LST-GAT's three layers
// standalone at its shapes and are not part of the closing sum.
var ledgerStages = []string{
	"serve.codec.decode_json_us",
	"serve.codec.decode_binary_us",
	"serve.session.advance_us",
	"phantom.build_us",
	"predict.lstgat_us",
	"head.assemble_us",
	"rl.select_us",
	"serve.codec.encode_us",
	"serve.replica.decide_us",
	"nn.gat_us",
	"nn.lstm_us",
	"nn.readout_us",
}

// ledgerSum are the rows that make up serve.replica.decide_us.
var ledgerSum = []string{"phantom.build_us", "predict.lstgat_us", "head.assemble_us", "rl.select_us"}

// ledgerRig holds one batch of B observations and the private model
// copies the stages run on.
type ledgerRig struct {
	b        int
	obs      []*serve.Observation
	next     []*serve.Observation // one step after obs[i], for the delta row
	jsonBody [][]byte
	binBody  [][]byte
	baseHash []uint64
	session  []string

	sessions  *serve.SessionCache
	builder   *phantom.Builder
	frameMaps []map[int]world.State
	frames    []sensor.Frame
	graphs    []*phantom.Graph
	predictor *predict.LSTGAT
	preds     []predict.Prediction
	spec      rl.StateSpec
	states    [][]float64
	agent     *rl.PDQN
	acts      []rl.Action
	replica   *serve.Replica
	decisions []serve.Decision

	gat     *nn.GAT
	lstm    *nn.LSTM
	readout *nn.Linear
	nodes   *tensor.Matrix
	targets []int
	nbrs    [][]int
	seq     []*tensor.Matrix
	hidden  *tensor.Matrix
}

func (f *fixture) newLedgerRig(b int) (*ledgerRig, error) {
	r := &ledgerRig{
		b:         b,
		sessions:  serve.NewSessionCache(0),
		builder:   phantom.NewBuilder(serve.ConfigFor(f.envCfg).Phantom),
		graphs:    make([]*phantom.Graph, b),
		predictor: f.predictor.Clone(),
		preds:     make([]predict.Prediction, b),
		spec:      rl.DefaultStateSpec(),
		states:    make([][]float64, b),
		agent:     f.agentClone(),
		acts:      make([]rl.Action, b),
		replica:   f.replica(),
		decisions: make([]serve.Decision, b),
	}
	for i := 0; i < b; i++ {
		chain := f.chains[i%len(f.chains)]
		o, nx := &chain[i/len(f.chains)], &chain[i/len(f.chains)+1]
		r.obs = append(r.obs, o)
		r.next = append(r.next, nx)
		jb, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		r.jsonBody = append(r.jsonBody, jb)
		r.binBody = append(r.binBody, serve.AppendFull(nil, nil, o.Frames))
		r.baseHash = append(r.baseHash, serve.HashFrames(o.Frames))
		r.session = append(r.session, fmt.Sprintf("ledger-%d", i))
	}

	// Standalone layers at LST-GAT's record-scale shapes, over the real
	// graphs' edge structure offset into one stacked node matrix.
	pc := f.scale.PredictorConfig()
	rng := rand.New(rand.NewSource(7))
	in := phantom.FeatureDim + 1
	r.gat = nn.NewGAT("ledger.gat", in, pc.AttnDim, pc.GATOut, rng)
	r.gat.Residual = true
	r.lstm = nn.NewLSTM("ledger.lstm", phantom.FeatureDim+pc.GATOut, pc.HiddenDim, rng)
	r.readout = nn.NewLinear("ledger.out", pc.HiddenDim, predict.OutputDim, rng)
	r.build()
	nodesPer := len(r.graphs[0].Steps[0])
	r.nodes = randMatrix(rng, b*nodesPer, in)
	for e, g := range r.graphs {
		for i, t := range g.Targets {
			r.targets = append(r.targets, t+e*nodesPer)
			nb := make([]int, len(g.Neighbors[i]))
			for k, j := range g.Neighbors[i] {
				nb[k] = j + e*nodesPer
			}
			r.nbrs = append(r.nbrs, nb)
		}
	}
	for t := 0; t < pc.Z; t++ {
		r.seq = append(r.seq, randMatrix(rng, len(r.targets), phantom.FeatureDim+pc.GATOut))
	}
	r.hidden = randMatrix(rng, len(r.targets), pc.HiddenDim)
	return r, nil
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// build is the phantom stage: each observation's frames become sensor
// frames and then a spatial-temporal graph, as the replica does it.
func (r *ledgerRig) build() {
	for i, o := range r.obs {
		for len(r.frameMaps) < len(o.Frames) {
			r.frameMaps = append(r.frameMaps, make(map[int]world.State))
		}
		r.frames = r.frames[:0]
		for k, fr := range o.Frames {
			m := r.frameMaps[k]
			clear(m)
			for _, v := range fr.Vehicles {
				m[v.ID] = v.State
			}
			r.frames = append(r.frames, sensor.Frame{AV: fr.AV, Observed: m})
		}
		r.graphs[i] = r.builder.BuildInto(r.graphs[i], r.frames)
	}
}

// iterate runs every stage once, adding each stage's time to row.
func (r *ledgerRig) iterate(row map[string][]float64) error {
	lap := func(name string, t0 time.Time) {
		row[name] = append(row[name], float64(time.Since(t0).Nanoseconds())/1e3)
	}
	t0 := time.Now()
	for _, b := range r.jsonBody {
		var o serve.Observation
		if err := json.Unmarshal(b, &o); err != nil {
			return err
		}
	}
	lap("serve.codec.decode_json_us", t0)
	t0 = time.Now()
	for _, b := range r.binBody {
		if _, err := serve.DecodeRequest(b, nil); err != nil {
			return err
		}
	}
	lap("serve.codec.decode_binary_us", t0)

	for i, o := range r.obs {
		r.sessions.Store(r.session[i], o.Frames)
	}
	t0 = time.Now()
	for i, nx := range r.next {
		if _, err := r.sessions.Advance(r.session[i], r.baseHash[i], nx.Frames[len(nx.Frames)-1:]); err != nil {
			return err
		}
	}
	lap("serve.session.advance_us", t0)

	t0 = time.Now()
	r.build()
	lap("phantom.build_us", t0)
	t0 = time.Now()
	r.predictor.PredictBatch(r.graphs, r.preds)
	lap("predict.lstgat_us", t0)
	t0 = time.Now()
	for i, g := range r.graphs {
		r.states[i] = head.AssembleState(r.spec, g, r.preds[i], g.AV, r.states[i])
	}
	lap("head.assemble_us", t0)
	t0 = time.Now()
	r.agent.SelectActionBatch(r.states, r.acts)
	lap("rl.select_us", t0)

	t0 = time.Now()
	for _, a := range r.acts {
		dr := serve.DecideResponse{Decision: serve.Decision{
			Behavior: a.B, BehaviorName: world.Behavior(a.B).String(), Accel: a.A, Params: a.Raw,
		}}
		if _, err := json.Marshal(&dr); err != nil {
			return err
		}
	}
	lap("serve.codec.encode_us", t0)

	t0 = time.Now()
	if err := r.replica.DecideBatch(r.obs, r.decisions); err != nil {
		return err
	}
	lap("serve.replica.decide_us", t0)
	for i, a := range r.acts {
		d := r.decisions[i]
		same := d.Behavior == a.B && math.Float64bits(d.Accel) == math.Float64bits(a.A) && len(d.Params) == len(a.Raw)
		for k := 0; same && k < len(a.Raw); k++ {
			same = math.Float64bits(d.Params[k]) == math.Float64bits(a.Raw[k])
		}
		if !same {
			return fmt.Errorf("ledger: staged decision %d differs from Replica.DecideBatch", i)
		}
	}

	t0 = time.Now()
	for range r.seq {
		r.gat.ForwardBatch(r.nodes, r.targets, r.nbrs)
	}
	lap("nn.gat_us", t0)
	t0 = time.Now()
	r.lstm.ForwardBatch(r.seq)
	lap("nn.lstm_us", t0)
	t0 = time.Now()
	r.readout.ForwardBatch(r.hidden)
	lap("nn.readout_us", t0)
	return nil
}

// runLedger times the stages at batch size b for at least budget (and at
// least minIters iterations) and returns the median of each row plus the
// derived predict.glue_us and ledger.gap_pct rows.
func (f *fixture) runLedger(b int, budget time.Duration) (map[string]float64, error) {
	const minIters = 30
	r, err := f.newLedgerRig(b)
	if err != nil {
		return nil, err
	}
	// One untimed pass fills the caches and workspaces.
	if err := r.iterate(map[string][]float64{}); err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	t0 := time.Now()
	for i := 0; i < minIters || time.Since(t0) < budget; i++ {
		if err := r.iterate(rows); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for _, name := range ledgerStages {
		out[name] = median(rows[name])
	}
	out["predict.glue_us"] = out["predict.lstgat_us"] - out["nn.gat_us"] - out["nn.lstm_us"] - out["nn.readout_us"]
	sum := 0.0
	for _, name := range ledgerSum {
		sum += out[name]
	}
	out["ledger.gap_pct"] = 100 * (out["serve.replica.decide_us"] - sum) / out["serve.replica.decide_us"]
	return out, nil
}
