// Package eval is the end-to-end evaluation harness: it rolls controllers
// through HEAD environments and computes the macroscopic and microscopic
// metrics of Tables I and II (AvgDT-A, AvgDT-C, Avg#-CA, MinTTC-A, AvgV-A,
// AvgJ-A, AvgD-CA), the reward statistics of Table V, and the reward
// coefficient search of Table VII.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"head/internal/batch"
	"head/internal/head"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/sensor"
	"head/internal/world"
)

// Metrics aggregates the Table I / Table II measurements over a set of
// test episodes.
type Metrics struct {
	Method string

	// Macroscopic.
	AvgDTA float64 // average AV driving time through the road, s
	AvgDTC float64 // average driving time of trailing conventional vehicles, s
	AvgCA  float64 // average number of times the AV forces its rear vehicle to decelerate > v_thr

	// Microscopic.
	MinTTCA float64 // average per-episode minimum TTC, s
	AvgVA   float64 // average AV velocity, m/s
	AvgJA   float64 // average |Δa| per step, m/s²
	AvgDCA  float64 // average rear-vehicle deceleration per step, m/s

	Episodes, Finished, Collisions int
}

// followRadius is how far behind the AV a conventional vehicle must be to
// count toward AvgDT-C (the paper uses 100 m).
const followRadius = 100.0

// Safety-metric histogram bounds: ttcBuckets spans the TTC range the
// safety reward cares about (seconds), rearDecelBuckets the rear-vehicle
// velocity drops the impact term penalizes (m/s per step).
var (
	ttcBuckets       = []float64{0.5, 1, 1.5, 2, 3, 4, 5, 7, 10, 15}
	rearDecelBuckets = []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 3, 5}
)

// episodeObs holds the pre-resolved metric handles one evaluation episode
// records into; the zero value disables recording. Handles are resolved
// once per episode so the per-step path is two atomic adds, and every
// metric is write-only — the returned Metrics never depend on it.
type episodeObs struct {
	ttc, rearDecel                        *obs.Histogram
	episodes, steps, collisions, finished *obs.Counter
}

func newEpisodeObs(reg *obs.Registry) episodeObs {
	if reg == nil {
		return episodeObs{}
	}
	return episodeObs{
		ttc:        reg.Histogram("eval.ttc_seconds", ttcBuckets...),
		rearDecel:  reg.Histogram("eval.rear_decel", rearDecelBuckets...),
		episodes:   reg.Counter("eval.episodes"),
		steps:      reg.Counter("eval.steps"),
		collisions: reg.Counter("eval.collisions"),
		finished:   reg.Counter("eval.finished"),
	}
}

// episodeTotals is one episode's partial aggregate. Episodes accumulate
// independently and are reduced in episode order, so the final Metrics do
// not depend on which worker ran which episode.
type episodeTotals struct {
	sumV, sumJ, sumD, sumDTC, sumDTA float64
	nV, nJ, nD, nDTC, nDTA           int
	minTTC                           float64
	hasTTC                           bool
	ca                               int
	finished, collisions             int
}

// epAccum accumulates one episode's partial sums step by step. It is the
// single implementation of the per-step metric arithmetic, shared by the
// serial episode loop and the lock-step batched runner so both produce the
// exact same float operations in the exact same order per episode.
type epAccum struct {
	t       episodeTotals
	env     *head.Env
	eo      episodeObs
	followV map[int]*[2]float64 // id → {sumV, count} of trailing vehicles
}

func newEpAccum(env *head.Env, eo episodeObs) *epAccum {
	return &epAccum{
		t:       episodeTotals{minTTC: math.Inf(1)},
		env:     env,
		eo:      eo,
		followV: map[int]*[2]float64{},
	}
}

// observe folds one StepManeuver outcome; the environment's post-step
// state must be current.
func (a *epAccum) observe(out head.StepOutcome) {
	t := &a.t
	av := a.env.Sim().AV.State
	t.sumV += av.V
	t.nV++
	t.sumJ += out.Jerk
	t.nJ++
	if out.TTCValid {
		t.minTTC = math.Min(t.minTTC, out.TTC)
		if a.eo.ttc != nil {
			a.eo.ttc.Observe(out.TTC)
		}
	}
	if out.RearExists {
		t.sumD += out.RearDecel
		t.nD++
		if out.RearDecel > a.env.Cfg.Reward.VThr {
			t.ca++
		}
		if a.eo.rearDecel != nil {
			a.eo.rearDecel.Observe(out.RearDecel)
		}
	}
	for _, v := range a.env.Sim().Vehicles {
		d := av.Lon - v.State.Lon
		if d > 0 && d <= followRadius {
			acc, ok := a.followV[v.ID]
			if !ok {
				acc = &[2]float64{}
				a.followV[v.ID] = acc
			}
			acc[0] += v.State.V
			acc[1]++
		}
	}
	if out.Collision {
		t.collisions++
	}
	if out.Finished {
		t.finished++
		t.sumDTA += float64(a.env.Steps()) * a.env.Cfg.Traffic.World.Dt
		t.nDTA++
	}
}

// finish flushes the episode counters and folds the follower driving
// times, returning the completed totals.
func (a *epAccum) finish() episodeTotals {
	t := &a.t
	if a.eo.episodes != nil {
		a.eo.episodes.Inc()
		a.eo.steps.Add(int64(t.nV))
		a.eo.collisions.Add(int64(t.collisions))
		a.eo.finished.Add(int64(t.finished))
	}
	t.hasTTC = !math.IsInf(t.minTTC, 1)
	// Sum follower driving times in vehicle-ID order: map iteration order
	// is randomized per run, and an order-dependent float sum would make
	// repeated runs (and the cross-worker determinism guarantee) drift in
	// the last bits.
	w := a.env.Cfg.Traffic.World
	ids := make([]int, 0, len(a.followV))
	for id := range a.followV {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		acc := a.followV[id]
		if acc[1] == 0 {
			continue
		}
		avgV := acc[0] / acc[1]
		if avgV > 0 {
			// Effective end-to-end driving time at the vehicle's observed
			// pace (the spawned vehicles do not physically traverse the
			// whole road, so extrapolate).
			t.sumDTC += w.RoadLength / avgV
			t.nDTC++
		}
	}
	return *t
}

// runEpisode rolls one evaluation episode and returns its partial sums.
// A non-nil lane records the episode/step/phase spans and per-step
// decision records (the environment is attached for the duration). A
// recorder that profiles this controller additionally receives one
// quality.Sample per decision — like every other sink here it is
// write-only, so the returned totals never depend on it.
func runEpisode(ctrl head.Controller, env *head.Env, eo episodeObs, episode int, lane *span.Lane, rec *quality.Recorder) episodeTotals {
	er := lane.StartEpisode(episode)
	defer er.End()
	env.SetTrace(lane)
	defer env.SetTrace(nil)
	env.Reset()
	ctrl.Reset()
	profile := rec.Enabled(ctrl.Name())
	acc := newEpAccum(env, eo)
	for step := 0; !env.Done(); step++ {
		sr := lane.StartStep(step)
		var qs quality.Sample
		var qok bool
		if profile {
			qs, qok = qualitySample(env)
		}
		fw := lane.Start("bpdqn_forward")
		man := ctrl.Decide(env)
		fw.End()
		out := env.StepManeuver(man)
		sr.End()
		acc.observe(out)
		if qok {
			// The decision side of the sample: man.A is the agent's raw
			// (pre-clamp) output — the same value the decision service
			// returns as Decision.Accel, so the two sides bin identically.
			qs.Behavior, qs.Accel = int(man.B), man.A
			qs.Reward = out.Reward
			qs.Safety, qs.Efficiency = out.Terms.Safety, out.Terms.Efficiency
			qs.Comfort, qs.Impact = out.Terms.Comfort, out.Terms.Impact
			qs.RewardValid = true
			rec.Observe(qs)
		}
	}
	return acc.finish()
}

// qualitySample summarizes the pre-decision observation the way the
// serving path sees it: the latest sensor frame's AV speed and neighbor
// count, the front-leader TTC from the sensed (not ground-truth) states,
// and the attention entropy behind the pending decision. Steps whose
// sensor history is still warming up are skipped — a served request
// always carries a full z-frame history, and the baseline must describe
// the same population the monitor measures.
func qualitySample(env *head.Env) (quality.Sample, bool) {
	hist := env.SensorHistory()
	if len(hist) != env.Cfg.Sensor.Z {
		return quality.Sample{}, false
	}
	f := hist[len(hist)-1]
	s := quality.Sample{Speed: f.AV.V, Neighbors: len(f.Observed)}
	obsList := make([]sensor.Observation, 0, len(f.Observed))
	for id, st := range f.Observed {
		obsList = append(obsList, sensor.Observation{ID: id, State: st})
	}
	veh := func(i int) (int, world.State) { return obsList[i].ID, obsList[i].State }
	if ttc, ok := quality.LeaderTTC(f.AV, len(obsList), veh, env.Cfg.Traffic.World.VehicleLen); ok {
		s.TTC, s.TTCValid = ttc, true
	}
	if ent, ok := quality.MeanAttnEntropy(env.DecisionAttention()); ok {
		s.AttnEntropy, s.AttnValid = ent, true
	}
	return s, true
}

// reduce folds per-episode totals (in episode order) into Metrics.
func reduce(method string, w world.Config, parts []episodeTotals) Metrics {
	m := Metrics{Method: method}
	var tot episodeTotals
	sumMinTTC, nMinTTC := 0.0, 0
	sumCA := 0.0
	for _, t := range parts {
		m.Episodes++
		tot.sumV += t.sumV
		tot.nV += t.nV
		tot.sumJ += t.sumJ
		tot.nJ += t.nJ
		tot.sumD += t.sumD
		tot.nD += t.nD
		tot.sumDTC += t.sumDTC
		tot.nDTC += t.nDTC
		tot.sumDTA += t.sumDTA
		tot.nDTA += t.nDTA
		if t.hasTTC {
			sumMinTTC += t.minTTC
			nMinTTC++
		}
		sumCA += float64(t.ca)
		m.Finished += t.finished
		m.Collisions += t.collisions
	}
	if tot.nDTA > 0 {
		m.AvgDTA = tot.sumDTA / float64(tot.nDTA)
	} else if tot.nV > 0 && tot.sumV > 0 {
		// No episode finished within budget: extrapolate from pace.
		m.AvgDTA = w.RoadLength / (tot.sumV / float64(tot.nV))
	}
	if tot.nDTC > 0 {
		m.AvgDTC = tot.sumDTC / float64(tot.nDTC)
	}
	if m.Episodes > 0 {
		m.AvgCA = sumCA / float64(m.Episodes)
	}
	if nMinTTC > 0 {
		m.MinTTCA = sumMinTTC / float64(nMinTTC)
	}
	if tot.nV > 0 {
		m.AvgVA = tot.sumV / float64(tot.nV)
	}
	if tot.nJ > 0 {
		m.AvgJA = tot.sumJ / float64(tot.nJ)
	}
	if tot.nD > 0 {
		m.AvgDCA = tot.sumD / float64(tot.nD)
	}
	return m
}

// RunEpisodes evaluates a controller over the given number of test
// episodes on env (which is Reset per episode). Episodes run serially on
// the shared controller/environment pair; use RunEpisodesBatched when
// independent per-episode replicas are available.
func RunEpisodes(ctrl head.Controller, env *head.Env, episodes int) Metrics {
	parts := make([]episodeTotals, 0, episodes)
	for ep := 0; ep < episodes; ep++ {
		parts = append(parts, runEpisode(ctrl, env, episodeObs{}, ep, nil, nil))
	}
	return reduce(ctrl.Name(), env.Cfg.Traffic.World, parts)
}

// runEpisodesObserved evaluates episodes concurrently on at most workers
// goroutines, one serial episode per setup pair (the RunEpisodesBatched
// contract), with live observability: per-step TTC and rear-deceleration
// histograms plus episode counters stream into reg, episode/step/phase
// spans plus decision records onto a fresh per-episode lane of tr, and
// decision-quality samples into rec (any may be nil). The sinks are
// write-only, so the returned Metrics stay bit-identical for every worker
// count with or without them.
func runEpisodesObserved(episodes, workers int, reg *obs.Registry, tr *span.Tracer, rec *quality.Recorder, setup func(episode int) (head.Controller, *head.Env)) Metrics {
	if episodes <= 0 {
		return Metrics{}
	}
	eo := newEpisodeObs(reg)
	type epResult struct {
		totals episodeTotals
		name   string
		world  world.Config
	}
	parts, _ := parallel.Map(context.Background(), episodes, workers, func(ep int) (epResult, error) {
		ctrl, env := setup(ep)
		// A fresh lane per episode: episodes run concurrently and a Lane
		// is single-goroutine; a nil tracer yields a nil (silent) lane.
		lane := tr.Lane(fmt.Sprintf("eval-%03d", ep))
		return epResult{
			totals: runEpisode(ctrl, env, eo, ep, lane, rec),
			name:   ctrl.Name(),
			world:  env.Cfg.Traffic.World,
		}, nil
	})
	totals := make([]episodeTotals, len(parts))
	for i, p := range parts {
		totals[i] = p.totals
	}
	return reduce(parts[0].name, parts[0].world, totals)
}

// RunEpisodesProfiled is RunEpisodesBatched plus decision-quality
// profiling: each decision the recorder's method makes streams one
// quality.Sample into rec. A non-nil recorder forces the serial
// (non-batched) episode path — the lock-step group runner has no
// per-decision hook — which is safe because the batched forwards are
// bit-identical to serial: the returned Metrics are byte-identical for
// every batch width, recorder or not. rec nil degrades to
// RunEpisodesBatched unchanged.
func RunEpisodesProfiled(episodes, batchEnvs, workers int, reg *obs.Registry, tr *span.Tracer, rec *quality.Recorder, setup func(episode int) (head.Controller, *head.Env)) Metrics {
	if rec == nil {
		return RunEpisodesBatched(episodes, batchEnvs, workers, reg, tr, setup)
	}
	return runEpisodesObserved(episodes, workers, reg, tr, rec, setup)
}

// RunEpisodesBatched evaluates episodes concurrently on at most workers
// goroutines (0 means all cores), in groups of batchEnvs whose members
// step together on the lock-step runner, so the LST-GAT forward and the
// action selection cross the networks once per lock-step iteration for
// the whole group; batchEnvs ≤ 1 runs every episode serially on its own.
// setup(ep) must return a controller and environment owned by that
// episode alone — network layers cache forward activations, so trained
// models must be cloned per episode (the group's first controller decides
// for every member), and the environment's RNG must be derived from the
// episode index (see parallel.Rand). reg and tr receive live metrics,
// spans and decision records, as in runEpisodesObserved. Per-episode
// results reduce in episode order, and the batched forwards are
// bit-identical to serial, so the returned Metrics are byte-identical for
// every batch width and worker count.
func RunEpisodesBatched(episodes, batchEnvs, workers int, reg *obs.Registry, tr *span.Tracer, setup func(episode int) (head.Controller, *head.Env)) Metrics {
	if batchEnvs <= 1 {
		return runEpisodesObserved(episodes, workers, reg, tr, nil, setup)
	}
	if episodes <= 0 {
		return Metrics{}
	}
	eo := newEpisodeObs(reg)
	groups := (episodes + batchEnvs - 1) / batchEnvs
	type groupResult struct {
		totals []episodeTotals
		name   string
		world  world.Config
	}
	parts, _ := parallel.Map(context.Background(), groups, workers, func(gi int) (groupResult, error) {
		lo := gi * batchEnvs
		hi := lo + batchEnvs
		if hi > episodes {
			hi = episodes
		}
		envs := make([]*head.Env, 0, hi-lo)
		accs := make([]*epAccum, 0, hi-lo)
		var ctrl head.Controller
		for ep := lo; ep < hi; ep++ {
			c, env := setup(ep)
			if ctrl == nil {
				ctrl = c
			}
			envs = append(envs, env)
			accs = append(accs, newEpAccum(env, eo))
		}
		lane := tr.Lane(fmt.Sprintf("evalbatch-%03d", gi))
		er := lane.StartEpisode(lo)
		g := batch.New(ctrl, envs)
		g.Run(lane, func(i int, out head.StepOutcome) { accs[i].observe(out) })
		er.End()
		res := groupResult{
			totals: make([]episodeTotals, len(envs)),
			name:   ctrl.Name(),
			world:  envs[0].Cfg.Traffic.World,
		}
		for i, a := range accs {
			res.totals[i] = a.finish()
		}
		return res, nil
	})
	totals := make([]episodeTotals, 0, episodes)
	for _, p := range parts {
		totals = append(totals, p.totals...)
	}
	return reduce(parts[0].name, parts[0].world, totals)
}
