package eval

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/head"
	"head/internal/policy"
	"head/internal/predict"
	"head/internal/reward"
	"head/internal/rl"
	"head/internal/world"
)

func tinyEnv(seed int64) *head.Env {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 120
	return head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
}

func TestRunEpisodesMetrics(t *testing.T) {
	env := tinyEnv(1)
	ctrl := policy.NewIDMLC(env.Cfg.Traffic.World)
	m := RunEpisodes(ctrl, env, 3)
	if m.Method != "IDM-LC" {
		t.Errorf("Method = %q", m.Method)
	}
	if m.Episodes != 3 {
		t.Errorf("Episodes = %d", m.Episodes)
	}
	w := env.Cfg.Traffic.World
	if m.AvgVA < w.VMin || m.AvgVA > w.VMax {
		t.Errorf("AvgVA = %g outside speed limits", m.AvgVA)
	}
	if m.AvgDTA <= 0 {
		t.Errorf("AvgDTA = %g, want positive", m.AvgDTA)
	}
	if m.AvgJA < 0 {
		t.Errorf("AvgJA = %g", m.AvgJA)
	}
	if m.AvgDCA < 0 {
		t.Errorf("AvgDCA = %g", m.AvgDCA)
	}
	if m.MinTTCA < 0 {
		t.Errorf("MinTTCA = %g", m.MinTTCA)
	}
	for _, v := range []float64{m.AvgDTA, m.AvgDTC, m.AvgCA, m.MinTTCA, m.AvgVA, m.AvgJA, m.AvgDCA} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite metric in %+v", m)
		}
	}
}

func TestRunEpisodesDTARelatesToVelocity(t *testing.T) {
	// A faster controller must get a smaller driving time on an empty
	// road.
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 0
	cfg.MaxSteps = 300
	fast := head.NewEnv(cfg, nil, rand.New(rand.NewSource(2)))
	m := RunEpisodes(policy.NewIDMLC(cfg.Traffic.World), fast, 2)
	if m.Finished != 2 {
		t.Fatalf("IDM-LC should finish an empty road: %+v", m)
	}
	want := cfg.Traffic.World.RoadLength / m.AvgVA
	if m.AvgDTA < want*0.5 || m.AvgDTA > want*2 {
		t.Errorf("AvgDTA %g inconsistent with AvgVA %g", m.AvgDTA, m.AvgVA)
	}
}

func TestSearchWeightsFindsPeak(t *testing.T) {
	base := reward.DefaultWeights()
	axes := []Axis{{Name: "w4", Min: 0, Max: 0.5, Step: 0.1}}
	// Score peaks at w4 = 0.2.
	score := func(w reward.Weights) float64 { return -math.Abs(w.Impact - 0.2) }
	res, err := SearchWeightsParallel(base, axes, 1, score)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Values) != 6 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if math.Abs(res[0].Best-0.2) > 1e-9 {
		t.Errorf("Best = %g, want 0.2", res[0].Best)
	}
}

func TestSearchWeightsAllAxes(t *testing.T) {
	res, err := SearchWeightsParallel(reward.DefaultWeights(), PaperAxes(), 1, func(w reward.Weights) float64 {
		// Synthetic objective peaking at the paper's optimum.
		return -math.Abs(w.Safety-0.9) - math.Abs(w.Efficiency-0.8) -
			math.Abs(w.Comfort-0.6) - math.Abs(w.Impact-0.2)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.9, 0.8, 0.6, 0.2}
	for i, r := range res {
		if math.Abs(r.Best-want[i]) > 1e-9 {
			t.Errorf("axis %s best = %g, want %g", r.Axis.Name, r.Best, want[i])
		}
	}
}

func TestSearchWeightsErrors(t *testing.T) {
	if _, err := SearchWeightsParallel(reward.DefaultWeights(),
		[]Axis{{Name: "w9", Min: 0, Max: 1, Step: 0.5}}, 1,
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for unknown coefficient")
	}
	if _, err := SearchWeightsParallel(reward.DefaultWeights(),
		[]Axis{{Name: "w1", Min: 0, Max: 1, Step: 0}}, 1,
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := SearchWeightsParallel(reward.DefaultWeights(),
		[]Axis{{Name: "w1", Min: 1, Max: 0, Step: 0.1}}, 1,
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for inverted range")
	}
}

func TestWithCoefficient(t *testing.T) {
	base := reward.DefaultWeights()
	w, err := withCoefficient(base, "w2", 0.4)
	if err != nil || w.Efficiency != 0.4 || w.Safety != base.Safety {
		t.Errorf("withCoefficient: %+v err=%v", w, err)
	}
}

// crashController drives off the road immediately, exercising the
// collision accounting and the no-finish extrapolation path of AvgDT-A.
type crashController struct{}

func (crashController) Name() string { return "crash" }
func (crashController) Reset()       {}
func (crashController) Decide(env *head.Env) world.Maneuver {
	return world.Maneuver{B: world.LaneLeft, A: 0}
}

func TestRunEpisodesCollisions(t *testing.T) {
	env := tinyEnv(60)
	m := RunEpisodes(crashController{}, env, 3)
	if m.Collisions != 3 {
		t.Errorf("Collisions = %d, want 3", m.Collisions)
	}
	if m.Finished != 0 {
		t.Errorf("Finished = %d, want 0", m.Finished)
	}
	// No episode finished, so AvgDT-A must be the pace extrapolation.
	if m.AvgDTA <= 0 {
		t.Errorf("AvgDTA = %g, want extrapolated positive value", m.AvgDTA)
	}
}

func TestRunEpisodesZeroEpisodes(t *testing.T) {
	env := tinyEnv(61)
	m := RunEpisodes(crashController{}, env, 0)
	if m.Episodes != 0 || m.AvgVA != 0 || m.AvgDTA != 0 {
		t.Errorf("zero-episode metrics = %+v", m)
	}
}

// batchedSetup builds a per-episode HEAD controller and environment with
// identical agent/predictor weights for every episode — the contract
// RunEpisodesBatched requires of its setup function.
func batchedSetup(t *testing.T, usePrediction bool) func(ep int) (head.Controller, *head.Env) {
	t.Helper()
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 60
	cfg.UsePrediction = usePrediction
	pcfg := predict.DefaultLSTGATConfig()
	pcfg.AttnDim, pcfg.GATOut, pcfg.HiddenDim = 8, 6, 8
	return func(ep int) (head.Controller, *head.Env) {
		var p predict.Model
		if usePrediction {
			p = predict.NewLSTGAT(pcfg, rand.New(rand.NewSource(5)))
		}
		env := head.NewEnv(cfg, p, rand.New(rand.NewSource(100+int64(ep))))
		agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 8, rand.New(rand.NewSource(9)))
		return &head.AgentController{ControllerName: "HEAD", Agent: agent}, env
	}
}

// TestRunEpisodesBatchedBitIdentity is the eval-level gate of the batched
// execution engine: grouping episodes into lock-step batches must yield
// byte-identical Metrics for every batch width, including widths that do
// not divide the episode count and groups whose members terminate at
// different steps.
func TestRunEpisodesBatchedBitIdentity(t *testing.T) {
	const episodes = 7
	for _, usePred := range []bool{true, false} {
		setup := batchedSetup(t, usePred)
		want := RunEpisodesBatched(episodes, 1, 1, nil, nil, setup)
		for _, be := range []int{2, 3, 8} {
			got := RunEpisodesBatched(episodes, be, 1, nil, nil, setup)
			if got != want {
				t.Errorf("usePrediction=%v batchEnvs=%d metrics diverged:\nbatched %+v\nserial  %+v", usePred, be, got, want)
			}
		}
		// Worker parallelism on top of batching must not change bytes
		// either.
		if got := RunEpisodesBatched(episodes, 3, 4, nil, nil, setup); got != want {
			t.Errorf("usePrediction=%v batchEnvs=3 workers=4 diverged from serial", usePred)
		}
	}
}

// TestRunEpisodesBatchedDelegates checks the width-1 path is exactly the
// serial runner (shared code, not a parallel reimplementation).
func TestRunEpisodesBatchedDelegates(t *testing.T) {
	setup := batchedSetup(t, false)
	a := runEpisodesObserved(4, 2, nil, nil, nil, setup)
	b := RunEpisodesBatched(4, 1, 2, nil, nil, setup)
	if a != b {
		t.Errorf("batchEnvs=1 diverged from runEpisodesObserved:\n%+v\n%+v", b, a)
	}
}
