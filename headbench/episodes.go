package main

import (
	"sync/atomic"
	"time"

	"head/internal/eval"
	"head/internal/head"
	"head/internal/parallel"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/world"
)

// Closed-loop evaluation as the table runs do it: a fixed, seeded episode
// set of the HEAD controller, lock-stepped batchEnvs environments at a
// time.
const (
	episodeCount = 16
	batchEnvs    = 8
)

// stageClock accumulates the time and rows of one traced stage. Safe for
// concurrent use.
type stageClock struct {
	ns, calls, rows atomic.Int64
}

func (c *stageClock) add(d time.Duration, rows int) {
	c.ns.Add(int64(d))
	c.calls.Add(1)
	c.rows.Add(int64(rows))
}

// episodeTrace collects the traced episode rows.
type episodeTrace struct {
	decide, predict, setup stageClock
}

// tracedController delegates to the HEAD controller and times each
// batched decision.
type tracedController struct {
	*head.AgentController
	clock *stageClock
}

func (c tracedController) DecideBatch(envs []*head.Env, ms []world.Maneuver) {
	t0 := time.Now()
	c.AgentController.DecideBatch(envs, ms)
	c.clock.add(time.Since(t0), len(envs))
}

// tracedPredictor delegates to LST-GAT and times each batched forward.
type tracedPredictor struct {
	*predict.LSTGAT
	clock *stageClock
}

func (p tracedPredictor) PredictBatch(gs []*phantom.Graph, out []predict.Prediction) {
	t0 := time.Now()
	p.LSTGAT.PredictBatch(gs, out)
	p.clock.add(time.Since(t0), len(gs))
}

// episodeRun is one pass over an episode set.
type episodeRun struct {
	metrics eval.Metrics
	steps   int
	seconds float64
}

// runEpisodes runs n seeded HEAD episodes through eval.RunEpisodesBatched.
// With tr non-nil the controller and predictor are wrapped in timing
// delegates; the returned metrics are bit-identical either way.
func (f *fixture) runEpisodes(seed int64, n, workers int, tr *episodeTrace) episodeRun {
	evalSeed := parallel.Seed(seed, streamEpisodes)
	envs := make([]*head.Env, n)
	t0 := time.Now()
	m := eval.RunEpisodesBatched(n, batchEnvs, workers, nil, nil, func(ep int) (head.Controller, *head.Env) {
		s0 := time.Now()
		ctrl := &head.AgentController{ControllerName: "HEAD", Agent: f.agentClone()}
		var c head.Controller = ctrl
		var p predict.Model = f.predictor.Clone()
		if tr != nil {
			c = tracedController{ctrl, &tr.decide}
			p = tracedPredictor{p.(*predict.LSTGAT), &tr.predict}
		}
		envs[ep] = head.NewEnv(f.envCfg, p, parallel.Rand(evalSeed, int64(ep)))
		if tr != nil {
			tr.setup.add(time.Since(s0), 1)
		}
		return c, envs[ep]
	})
	run := episodeRun{metrics: m, seconds: time.Since(t0).Seconds()}
	for _, e := range envs {
		run.steps += e.Steps()
	}
	return run
}
