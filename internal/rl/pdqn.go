package rl

import (
	"math/rand"

	"head/internal/nn"
	"head/internal/obs/span"
	"head/internal/tensor"
)

// PDQNConfig holds the hyperparameters of the P-DQN optimization paradigm
// (Section IV-B). The paper uses γ = 0.9, replay 20,000, Adam lr = 0.001,
// batch 64, and soft target updates with τ = 0.01.
type PDQNConfig struct {
	Gamma      float64
	LR         float64
	Tau        float64
	BatchSize  int
	ReplayCap  int
	Warmup     int // environment steps before training begins
	TrainEvery int // train once per this many environment steps
	Eps        EpsSchedule
	NoiseStd   float64 // Gaussian exploration noise on accelerations, m/s²
	ClipNorm   float64
	// AlternatePhaseLen > 0 enables P-QP-style alternating optimization:
	// Q and x are updated in alternating phases of this many train steps
	// instead of jointly.
	AlternatePhaseLen int
	// Backend names the tensor backend the decision networks' forward
	// products run on ("" or "f64" for the float64 golden path, "f32" for
	// the float32 fast path). Gradients and optimizer state stay float64
	// either way.
	Backend string
}

// DefaultPDQNConfig returns the paper's training settings.
func DefaultPDQNConfig() PDQNConfig {
	return PDQNConfig{
		Gamma:      0.9,
		LR:         0.001,
		Tau:        0.01,
		BatchSize:  64,
		ReplayCap:  20000,
		Warmup:     200,
		TrainEvery: 1,
		Eps:        EpsSchedule{Start: 1.0, End: 0.05, DecaySteps: 5000},
		NoiseStd:   0.5,
		ClipNorm:   5,
	}
}

// PDQN is the P-DQN optimization paradigm with pluggable x/Q networks: with
// branched networks it is the paper's BP-DQN, with shared single-branch
// networks it is vanilla P-DQN, and with AlternatePhaseLen set it becomes
// the P-QP alternating scheme.
type PDQN struct {
	name       string
	cfg        PDQNConfig
	backend    string
	aMax       float64
	x, xT      XNet // online and target actor networks
	qn, qT     QNet // online and target critic networks
	optX, optQ *nn.Adam
	buf        *Replay
	rng        *rand.Rand
	steps      int
	trainSteps int
	lastLoss   float64
	trace      *span.Lane

	// steady-state scratch: the action-parameter buffer returned via
	// Action.Raw (valid until the next Act; replay Push deep-copies it),
	// the one-state slice single decisions forward, cached matrix headers,
	// and train-step batch storage.
	rawBuf    []float64
	one       [1][]float64
	rawMat    tensor.Matrix
	sampleRaw tensor.Matrix
	dScratch  *tensor.Matrix
	batch     []Transition

	// SelectActionBatch's action-parameter arena and the minibatch
	// target scratch of targetValues.
	batchRaw    []float64
	batchRawMat tensor.Matrix
	ys          []float64
	nextStates  [][]float64
}

// NewPDQN assembles an agent from freshly constructed online and target
// networks. The two pairs must be architecturally identical; the target
// networks are synchronized to the online ones at construction.
func NewPDQN(name string, cfg PDQNConfig, aMax float64,
	x, xTarget XNet, q, qTarget QNet, rng *rand.Rand) *PDQN {
	be := tensor.MustLookup(cfg.Backend)
	nn.SetBackend(be, x, xTarget, q, qTarget)
	nn.CopyParams(xTarget, x)
	nn.CopyParams(qTarget, q)
	return &PDQN{
		name:    name,
		cfg:     cfg,
		backend: be.Name(),
		aMax:    aMax,
		x:       x,
		qn:      q,
		xT:      xTarget,
		qT:      qTarget,
		optX:    nn.NewAdam(cfg.LR),
		optQ:    nn.NewAdam(cfg.LR),
		buf:     NewReplay(cfg.ReplayCap),
		rng:     rng,
	}
}

// NewBPDQN builds the paper's BP-DQN agent with branched networks of
// hidden width d.
func NewBPDQN(cfg PDQNConfig, spec StateSpec, aMax float64, d int, rng *rand.Rand) *PDQN {
	return NewPDQN("BP-DQN", cfg, aMax,
		NewBranchedX(spec, d, aMax, rng), NewBranchedX(spec, d, aMax, rng),
		NewBranchedQ(spec, d, rng), NewBranchedQ(spec, d, rng), rng)
}

// NewVanillaPDQN builds the vanilla P-DQN baseline with shared
// single-branch networks of hidden width h.
func NewVanillaPDQN(cfg PDQNConfig, spec StateSpec, aMax float64, h int, rng *rand.Rand) *PDQN {
	return NewPDQN("P-DQN", cfg, aMax,
		NewSharedX(spec, h, aMax, rng), NewSharedX(spec, h, aMax, rng),
		NewSharedQ(spec, h, rng), NewSharedQ(spec, h, rng), rng)
}

// NewPQP builds the P-QP baseline: shared networks optimized in
// alternating phases instead of jointly.
func NewPQP(cfg PDQNConfig, spec StateSpec, aMax float64, h int, rng *rand.Rand) *PDQN {
	if cfg.AlternatePhaseLen <= 0 {
		cfg.AlternatePhaseLen = 50
	}
	a := NewPDQN("P-QP", cfg, aMax,
		NewSharedX(spec, h, aMax, rng), NewSharedX(spec, h, aMax, rng),
		NewSharedQ(spec, h, rng), NewSharedQ(spec, h, rng), rng)
	return a
}

// Name implements Agent.
func (p *PDQN) Name() string { return p.name }

// Backend reports the resolved tensor backend name the decision networks'
// forward products run on ("f64" when the config left it empty).
func (p *PDQN) Backend() string { return p.backend }

// Epsilon implements EpsilonReporter: the current ε-greedy rate.
func (p *PDQN) Epsilon() float64 { return p.cfg.Eps.At(p.steps) }

// ReplayLen implements ReplayReporter: the replay-buffer occupancy.
func (p *PDQN) ReplayLen() int { return p.buf.Len() }

// LastLoss implements LossReporter: the mean squared TD error of the most
// recent critic minibatch (0 before the first training step).
func (p *PDQN) LastLoss() float64 { return p.lastLoss }

// SetTrace implements span.Traceable: replay sampling and minibatch
// updates become phase spans on the lane. Nil detaches.
func (p *PDQN) SetTrace(l *span.Lane) { p.trace = l }

// Params implements nn.Module over every network (online and target), so
// a trained agent can be checkpointed with nn.Save and restored with
// nn.Load into an identically constructed agent.
func (p *PDQN) Params() []*nn.Param {
	ps := p.x.Params()
	ps = append(ps, p.qn.Params()...)
	ps = append(ps, p.xT.Params()...)
	return append(ps, p.qT.Params()...)
}

// Act implements Agent: the x network proposes one acceleration per
// behavior, the Q network scores them, and the policy takes the argmax —
// with ε-greedy behavior exploration and Gaussian acceleration noise
// during training.
func (p *PDQN) Act(state []float64, explore bool) Action {
	states := p.single(state)
	xout := p.x.Forward(states)
	raw := growFloats(p.rawBuf, NumBehaviors)
	p.rawBuf = raw
	copy(raw, xout.Data)
	if explore {
		for i := range raw {
			raw[i] = clamp(raw[i]+p.rng.NormFloat64()*p.cfg.NoiseStd, p.aMax)
		}
	}
	b := 0
	if explore && p.rng.Float64() < p.cfg.Eps.At(p.steps) {
		b = p.rng.Intn(NumBehaviors)
	} else {
		noisy := viewInto(&p.rawMat, 1, NumBehaviors, raw)
		qv := p.qn.Forward(states, noisy)
		b = qv.ArgmaxRow(0)
	}
	return Action{B: b, A: raw[b], Raw: raw}
}

// single returns state as the one-row batch the networks forward, reusing
// the agent's one-element slice so a single decision allocates nothing.
func (p *PDQN) single(state []float64) [][]float64 {
	p.one[0] = state
	return p.one[:]
}

// Observe implements Agent.
func (p *PDQN) Observe(tr Transition) {
	p.buf.Push(tr)
	p.steps++
	if p.steps < p.cfg.Warmup || p.buf.Len() < p.cfg.BatchSize {
		return
	}
	if p.cfg.TrainEvery > 1 && p.steps%p.cfg.TrainEvery != 0 {
		return
	}
	p.trainStep()
}

// phase reports which networks train this step: joint mode trains both;
// alternating (P-QP) mode flips between Q-only and x-only phases.
func (p *PDQN) phase() (trainQ, trainX bool) {
	if p.cfg.AlternatePhaseLen <= 0 {
		return true, true
	}
	inQ := (p.trainSteps/p.cfg.AlternatePhaseLen)%2 == 0
	return inQ, !inQ
}

// trainStep performs one minibatch update of L2 (Equation (22)) and L3
// (Equation (23)), then soft-updates the target networks.
func (p *PDQN) trainStep() {
	rs := p.trace.Start("replay_sample")
	p.batch = p.buf.SampleInto(p.batch, p.cfg.BatchSize, p.rng)
	batch := p.batch
	rs.End()
	mu := p.trace.Start("minibatch_update")
	defer mu.End()
	trainQ, trainX := p.phase()
	p.trainSteps++

	d := p.dScratch
	if d == nil {
		d = tensor.New(1, NumBehaviors)
		p.dScratch = d
	}

	if trainQ {
		nn.ZeroGrads(p.qn)
		ys := p.targetValues(batch)
		sqErr := 0.0
		for k, tr := range batch {
			y := ys[k]
			raw := viewInto(&p.sampleRaw, 1, NumBehaviors, tr.Action.Raw)
			qv := p.qn.Forward(p.single(tr.State), raw)
			diff := qv.At(0, tr.Action.B) - y
			sqErr += diff * diff
			d.Fill(0)
			d.Set(0, tr.Action.B, diff/float64(len(batch)))
			p.qn.Backward(d)
		}
		nn.ClipGradNorm(p.qn, p.cfg.ClipNorm)
		p.optQ.Step(p.qn)
		p.lastLoss = sqErr / float64(len(batch))
	}

	if trainX {
		nn.ZeroGrads(p.x)
		nn.ZeroGrads(p.qn)
		for _, tr := range batch {
			states := p.single(tr.State)
			xout := p.x.Forward(states)
			p.qn.Forward(states, xout)
			// L3 = −Σ_b Q_b ⇒ dL3/dQ = −1 for every output.
			d.Fill(-1 / float64(len(batch)))
			dx := p.qn.Backward(d)
			p.x.Backward(dx)
		}
		nn.ClipGradNorm(p.x, p.cfg.ClipNorm)
		p.optX.Step(p.x)
		nn.ZeroGrads(p.qn) // discard critic grads from the actor pass
	}

	nn.SoftUpdate(p.xT, p.x, p.cfg.Tau)
	nn.SoftUpdate(p.qT, p.qn, p.cfg.Tau)
}

// targetValues fills p.ys with the TD targets y = r + γ·max_b Q_T of
// Equation (22) for the whole minibatch: all non-terminal next states
// evaluate in one target-network forward pair. The target networks share
// no state with the online ones, so hoisting their forwards ahead of the
// update loop moves only independent reads, and each row equals the
// one-state forward of that transition bit for bit.
func (p *PDQN) targetValues(batch []Transition) []float64 {
	p.ys = growFloats(p.ys, len(batch))
	ys := p.ys
	p.nextStates = p.nextStates[:0]
	for _, tr := range batch {
		if !tr.Done {
			p.nextStates = append(p.nextStates, tr.Next)
		}
	}
	var qN *tensor.Matrix
	if len(p.nextStates) > 0 {
		qN = p.qT.Forward(p.nextStates, p.xT.Forward(p.nextStates))
	}
	row := 0
	for k, tr := range batch {
		y := tr.Reward
		if !tr.Done {
			best := qN.ArgmaxRow(row)
			y += p.cfg.Gamma * qN.At(row, best)
			row++
		}
		ys[k] = y
	}
	return ys
}

// BatchAgent is an agent that can select greedy actions for several
// environments in one batched forward pass.
type BatchAgent interface {
	Agent
	// SelectActionBatch writes the greedy action for states[i] into
	// out[i]. No exploration, no rng consumption.
	SelectActionBatch(states [][]float64, out []Action)
}

// SelectActionBatch implements BatchAgent: the greedy policy of
// Act(state, false) evaluated for all states in one x forward and one Q
// forward. Row i of the result is bit-identical to the greedy Act on
// states[i] — the networks are row-independent — and no rng is consumed,
// so interleaving batched and single selection cannot perturb a seeded
// run.
//
// The returned Action.Raw slices alias one agent-owned arena and stay
// valid until the next SelectActionBatch call (Act uses a separate buffer
// and replay Push deep-copies, so the usual hot-path reuse rules apply).
func (p *PDQN) SelectActionBatch(states [][]float64, out []Action) {
	if len(out) < len(states) {
		panic("rl: SelectActionBatch out shorter than states")
	}
	p.batchRaw = growFloats(p.batchRaw, len(states)*NumBehaviors)
	xout := p.x.Forward(states)
	copy(p.batchRaw, xout.Data)
	rawView := viewInto(&p.batchRawMat, len(states), NumBehaviors, p.batchRaw)
	qv := p.qn.Forward(states, rawView)
	for i := range states {
		b := qv.ArgmaxRow(i)
		raw := p.batchRaw[i*NumBehaviors : (i+1)*NumBehaviors]
		out[i] = Action{B: b, A: raw[b], Raw: raw}
	}
}
