package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"head/internal/experiments"
	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/parallel"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/serve"
	"head/internal/world"
)

// Model construction seeds. Forward and backward cost depends on shapes,
// not weight values, so the models are built from fixed seeds at record
// scale instead of being trained: every workload seed runs the same
// networks, and set-up takes seconds.
const (
	predictorSeed = 101
	agentSeed     = 102
)

// Fleet observation chains: chainCount chains of chainLen servable
// snapshots, each one simulator step after the previous, captured from
// chainEnvs coasting environments.
const (
	chainLen   = 16
	chainCount = 32
	chainEnvs  = 4
)

// Random-stream tags derived from the workload seed.
const (
	streamChains int64 = iota + 1
	streamDataset
	streamEpisodes
	streamTrainEnv
	streamTrainAgent
	streamTrainData
	streamFleet
)

// fixture is everything the workloads run on: the record-scale models,
// the fleet's observation chains and the prediction dataset.
type fixture struct {
	scale     experiments.Scale
	envCfg    head.EnvConfig
	predictor *predict.LSTGAT
	agent     *rl.PDQN
	chains    [][]serve.Observation
	// jsonChains holds the JSON request body of every chain observation,
	// so JSON vehicles spend no measured CPU encoding them.
	jsonChains [][][]byte
	dataset    *ngsim.Dataset
}

// buildFixture builds the models, captures the observation chains and
// generates the dataset for one workload seed.
func buildFixture(seed int64) (*fixture, error) {
	s := experiments.Record() // record scale on the default f64 backend
	cfg := s.EnvConfig()
	f := &fixture{
		scale:     s,
		envCfg:    cfg,
		predictor: predict.NewLSTGAT(s.PredictorConfig(), rand.New(rand.NewSource(predictorSeed))),
		agent:     newAgent(s, cfg),
	}
	for e := 0; e < chainEnvs; e++ {
		chains, err := captureChains(cfg, parallel.Seed(parallel.Seed(seed, streamChains), int64(e)), chainCount/chainEnvs)
		if err != nil {
			return nil, err
		}
		f.chains = append(f.chains, chains...)
	}
	for _, chain := range f.chains {
		bodies := make([][]byte, len(chain))
		for i := range chain {
			b, err := json.Marshal(&chain[i])
			if err != nil {
				return nil, fmt.Errorf("encode chain: %w", err)
			}
			bodies[i] = b
		}
		f.jsonChains = append(f.jsonChains, bodies)
	}
	dcfg := ngsim.DefaultConfig()
	dcfg.Rollouts = s.DatasetRollouts
	dcfg.StepsPerRollout = s.DatasetSteps
	ds, err := ngsim.Generate(dcfg, parallel.Rand(seed, streamDataset))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	f.dataset = ds
	return f, nil
}

// newAgent builds the record-scale BP-DQN from its fixed seed, with a
// lane-keeping prior: the x merge head is scaled down so proposed
// accelerations stay small, and the Q merge head favours lane keeping.
// Without it a freshly seeded policy crashes within a few steps, and the
// episodes would measure resets instead of driving. The prior only moves
// weight values; every forward keeps its shapes and cost, and decisions
// stay state-dependent.
func newAgent(s experiments.Scale, cfg head.EnvConfig) *rl.PDQN {
	a := rl.NewBPDQN(s.RLConfig(), rl.DefaultStateSpec(), cfg.Traffic.World.AMax, s.RLHidden,
		rand.New(rand.NewSource(agentSeed)))
	for _, p := range a.Params() {
		switch p.Name {
		case "bpx.merge.W", "bpx.merge.b":
			for i := range p.W.Data {
				p.W.Data[i] *= 0.1
			}
		case "bpq.merge.b":
			p.W.Data[world.LaneKeep] += 5
		}
		p.Touch()
	}
	return a
}

// agentClone returns a private copy of the fixture's agent.
func (f *fixture) agentClone() *rl.PDQN {
	a := newAgent(f.scale, f.envCfg)
	nn.CopyParams(a, f.agent)
	return a
}

// replica builds a serving replica over private model copies, as
// headserve does for each batcher worker.
func (f *fixture) replica() *serve.Replica {
	return serve.NewReplica(serve.ConfigFor(f.envCfg), f.predictor.Clone(), f.agentClone())
}

// digest identifies the fixture's inputs, so repeated set-ups can be
// checked to build the same thing.
func (f *fixture) digest() (string, error) {
	chains, err := digestJSON(f.chains)
	if err != nil {
		return "", err
	}
	var truths [][6][3]float64
	for _, smp := range f.dataset.Samples {
		truths = append(truths, smp.Truth)
	}
	data, err := digestJSON(truths)
	if err != nil {
		return "", err
	}
	return digestBytes([]byte(chains + data + digestParams(f.predictor, f.agent))), nil
}

// captureChains rolls one coasting environment (no predictor, no server)
// and cuts its servable snapshots into n chains of chainLen, each snapshot
// exactly one step after the previous one. A chain that an episode end or
// sensor warm-up would break is restarted.
func captureChains(cfg head.EnvConfig, seed int64, n int) ([][]serve.Observation, error) {
	env := head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
	env.Reset()
	coast := world.Maneuver{B: world.LaneKeep, A: 0}
	var chains [][]serve.Observation
	var cur []serve.Observation
	for steps := 0; len(chains) < n; steps++ {
		if steps > 100*chainLen*n {
			return nil, fmt.Errorf("capture: no %d chains of %d after %d steps", n, chainLen, steps)
		}
		if env.Done() {
			env.Reset()
			cur = nil
		}
		o := serve.Snapshot(env.SensorHistory())
		switch {
		case o.Validate(cfg.Sensor.Z) != nil:
			cur = nil
		case len(cur) > 0 && !reflect.DeepEqual(cur[len(cur)-1].Frames[1:], o.Frames[:len(o.Frames)-1]):
			cur = []serve.Observation{o}
		default:
			cur = append(cur, o)
		}
		if len(cur) == chainLen {
			chains = append(chains, cur)
			cur = nil
		}
		env.StepManeuver(coast)
	}
	return chains, nil
}

// timeSetup builds the fixture reps times, each from a collected heap,
// checks every build is identical, and returns the first fixture with
// every build's time.
func timeSetup(seed int64, reps int) (*fixture, []float64, error) {
	var first *fixture
	var want string
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := buildFixture(seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		d, err := f.digest()
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first, want = f, d
		} else if d != want {
			return nil, nil, fmt.Errorf("set-up is not deterministic: build %d digest %s != %s", i, d, want)
		}
	}
	return first, times, nil
}
