package head_test

// Paired tensor-backend benchmarks: every Benchmark<X>F64 has a
// Benchmark<X>F32 sibling timing the identical workload on the float32
// backend. `benchcheck -backend` pairs the rows by name, derives the
// f64/f32 ns-per-op ratio per pair, and fails CI when the float32 fast
// path stops clearing its speedup floor (see .github/workflows/ci.yml,
// bench-backend job, and the committed BENCH_backend.json baseline).
//
// Three rungs of the stack are paired: the raw batched LSTM pre-activation
// kernel at a serving-representative shape (where the f32 win is purest),
// the full LST-GAT prediction forward, and the BP-DQN action selection
// (the smallest networks, so the thinnest win).

import (
	"math/rand"
	"testing"

	"head/internal/predict"
	"head/internal/rl"
	"head/internal/tensor"
)

// benchBackendPreact times one batched LSTM pre-activation z = x·wx + h·wh
// + bias at the record-scale shape: batch 64 sequences, input width 70
// (phantom features + GAT context), hidden 64 (so z is 64×256).
func benchBackendPreact(b *testing.B, name string) {
	be := tensor.MustLookup(name)
	rng := rand.New(rand.NewSource(11))
	const batch, in, hidden = 64, 70, 64
	x := tensor.New(batch, in)
	x.RandUniform(rng, 1)
	h := tensor.New(batch, hidden)
	h.RandUniform(rng, 1)
	mk := func(rows, cols int) *tensor.Weights {
		m := tensor.New(rows, cols)
		m.RandUniform(rng, 1)
		return tensor.NewWeights(m)
	}
	wx := mk(in, 4*hidden)
	wh := mk(hidden, 4*hidden)
	bias := mk(1, 4*hidden)
	z := tensor.New(batch, 4*hidden)
	var ws tensor.Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		be.LSTMPreact(&ws, z, x, wx, h, wh, bias)
	}
}

func BenchmarkBackendLSTMPreactF64(b *testing.B) { benchBackendPreact(b, "f64") }
func BenchmarkBackendLSTMPreactF32(b *testing.B) { benchBackendPreact(b, "f32") }

// benchBackendPredict times one full LST-GAT prediction (all six targets)
// at the paper's record dimensions (Dφ1 = Dφ3 = Dl = 64).
func benchBackendPredict(b *testing.B, name string) {
	ds, _ := benchPredictor(12)
	cfg := predict.LSTGATConfig{AttnDim: 64, GATOut: 64, HiddenDim: 64, Z: 5, LR: 0.01, Backend: name}
	model := predict.NewLSTGAT(cfg, rand.New(rand.NewSource(12)))
	g := ds.Samples[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(g)
	}
}

func BenchmarkBackendLSTGATPredictF64(b *testing.B) { benchBackendPredict(b, "f64") }
func BenchmarkBackendLSTGATPredictF32(b *testing.B) { benchBackendPredict(b, "f32") }

// benchBackendAct times one greedy BP-DQN action selection (x-net forward,
// Q-net scoring, argmax) with hidden width 64.
func benchBackendAct(b *testing.B, name string) {
	env := newBenchEnv(13)
	cfg := rl.DefaultPDQNConfig()
	cfg.Backend = name
	agent := rl.NewBPDQN(cfg, env.Spec(), env.AMax(), 64, rand.New(rand.NewSource(13)))
	state := env.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state, false)
	}
}

func BenchmarkBackendBPDQNActF64(b *testing.B) { benchBackendAct(b, "f64") }
func BenchmarkBackendBPDQNActF32(b *testing.B) { benchBackendAct(b, "f32") }
