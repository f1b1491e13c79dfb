package main

import (
	"math/rand"
	"time"

	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/parallel"
	"head/internal/predict"
	"head/internal/rl"
)

// trainBudget is a fixed amount of learning: LST-GAT minibatches over the
// prediction dataset, then BP-DQN steps in a HEAD environment — warm-up
// steps that only fill the replay buffer, then updates steps that each
// run one minibatch update.
type trainBudget struct {
	minibatches int
	updates     int
}

// trainTrace collects the traced training rows.
type trainTrace struct {
	trainBatch, act, observe, envStep stageClock
	updates                           int64
}

// trainRun is one pass over the training budget.
type trainRun struct {
	digest  string
	seconds float64
}

// runTrain spends the budget from fresh seeded models and returns the
// digest of the learned parameters. With tr non-nil every stage call is
// timed; the parameters are bit-identical either way.
func (f *fixture) runTrain(seed int64, ds *ngsim.Dataset, b trainBudget, tr *trainTrace) trainRun {
	t0 := time.Now()
	model := f.predictor.Clone()
	rng := parallel.Rand(seed, streamTrainData)
	order := rng.Perm(len(ds.Samples))
	batch := make([]*ngsim.Sample, 0, f.scale.PredBatch)
	next := 0
	for k := 0; k < b.minibatches; k++ {
		batch = batch[:0]
		for len(batch) < f.scale.PredBatch {
			batch = append(batch, ds.Samples[order[next%len(order)]])
			next++
		}
		s := time.Now()
		model.TrainBatch(batch)
		if tr != nil {
			tr.trainBatch.add(time.Since(s), len(batch))
		}
	}

	cfg := f.scale.RLConfig()
	agent := rl.NewBPDQN(cfg, rl.DefaultStateSpec(), f.envCfg.Traffic.World.AMax, f.scale.RLHidden,
		parallel.Rand(seed, streamTrainAgent))
	var p predict.Model = model.Clone()
	env := head.NewEnv(f.envCfg, p, parallel.Rand(seed, streamTrainEnv))
	// An update runs on every Observe once both the warm-up and one
	// replay minibatch are reached (TrainEvery is 1).
	warm := max(cfg.Warmup, cfg.BatchSize) - 1
	state := append([]float64(nil), env.Reset()...)
	for step := 0; step < warm+b.updates; step++ {
		var s time.Time
		if tr != nil {
			s = time.Now()
		}
		act := agent.Act(state, true)
		if tr != nil {
			tr.act.add(time.Since(s), 1)
			s = time.Now()
		}
		next, r, done := env.Step(act.B, act.A)
		if tr != nil {
			tr.envStep.add(time.Since(s), 1)
			s = time.Now()
		}
		agent.Observe(rl.Transition{State: state, Action: act, Reward: r, Next: next, Done: done})
		if tr != nil {
			tr.observe.add(time.Since(s), 1)
			if step >= warm {
				tr.updates++
			}
		}
		if done {
			state = append(state[:0], env.Reset()...)
		} else {
			state = append(state[:0], next...)
		}
	}
	return trainRun{digest: digestParams(model, agent), seconds: time.Since(t0).Seconds()}
}

// checkDataset is the small prediction dataset of the pinned train check.
func checkDataset(seed int64) (*ngsim.Dataset, error) {
	cfg := ngsim.DefaultConfig()
	cfg.Rollouts = 1
	cfg.StepsPerRollout = 10
	return ngsim.Generate(cfg, rand.New(rand.NewSource(seed)))
}
