package predict

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"head/internal/phantom"
)

// forwardPrediction is the independent reference the inference paths are
// held to: the training forward on one graph (every layer's backward cache
// filled, LSTM.Forward rather than the cache-free ForwardBatch), unscaled.
func forwardPrediction(m *LSTGAT, g *phantom.Graph) Prediction {
	y := m.forward(g)
	var p Prediction
	for i := 0; i < phantom.NumSlots; i++ {
		p[i] = m.scale.unscaleRow(y.Row(i))
	}
	return p
}

// TestPredictBatchBitIdentity is the model-level contract of the batched
// execution engine: for random batch sizes, orderings, and GOMAXPROCS
// values (which set the shard count), PredictBatch over N graphs must
// reproduce the training forward on each graph byte-for-byte, and
// interleaving batched and one-graph calls on one model instance must not
// perturb either.
func TestPredictBatchBitIdentity(t *testing.T) {
	if len(smallDS.Samples) < 3 {
		t.Fatalf("dataset too small: %d samples", len(smallDS.Samples))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := tinyLSTGAT(31)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(9)
		gs := make([]*phantom.Graph, n)
		for i := range gs {
			gs[i] = smallDS.Samples[rng.Intn(len(smallDS.Samples))].Graph
		}
		want := make([]Prediction, n)
		for i, g := range gs {
			want[i] = forwardPrediction(m, g)
		}
		got := make([]Prediction, n)
		if trial%3 == 2 {
			runtime.GOMAXPROCS(1 + rng.Intn(4))
		} else {
			runtime.GOMAXPROCS(1)
		}
		m.PredictBatch(gs, got)
		for i := range gs {
			for s := 0; s < phantom.NumSlots; s++ {
				for d := 0; d < OutputDim; d++ {
					if math.Float64bits(want[i][s][d]) != math.Float64bits(got[i][s][d]) {
						t.Fatalf("trial %d graph %d slot %d dim %d: forward %v batched %v",
							trial, i, s, d, want[i][s][d], got[i][s][d])
					}
				}
			}
		}
		// A one-graph Predict after a batched pass must be untouched.
		again := m.Predict(gs[0])
		for s := 0; s < phantom.NumSlots; s++ {
			for d := 0; d < OutputDim; d++ {
				if math.Float64bits(want[0][s][d]) != math.Float64bits(again[s][d]) {
					t.Fatalf("trial %d: Predict perturbed after PredictBatch", trial)
				}
			}
		}
	}
}

// TestPredictBatchTrainInterleave pins that a batched inference pass
// between training steps does not change what training computes: gradients
// after forward+backward are a function of the inputs alone, so a model
// that ran PredictBatch mid-stream stays bit-identical to one that never
// did.
func TestPredictBatchTrainInterleave(t *testing.T) {
	a := tinyLSTGAT(32)
	b := tinyLSTGAT(32)
	batch := smallDS.Samples[:3]
	gs := []*phantom.Graph{smallDS.Samples[0].Graph, smallDS.Samples[1].Graph}
	out := make([]Prediction, len(gs))
	for step := 0; step < 3; step++ {
		la := a.TrainBatch(batch)
		b.PredictBatch(gs, out)
		lb := b.TrainBatch(batch)
		if math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("step %d: losses diverge with interleaved PredictBatch: %v vs %v", step, la, lb)
		}
	}
}

// TestPredictBatchShardedBitIdentity pins the sharded PredictBatch: for
// every GOMAXPROCS in {1, 2, 3, 4, 8} and batch sizes 1–9 (so uneven and
// one-graph shards occur), every prediction and every LastAttention row
// must equal serial Predict on each graph bit for bit, with the attention
// rows concatenated in request order. f32 is held to its own serial path.
func TestPredictBatchShardedBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const maxBatch = 9
	if len(smallDS.Samples) < 2*maxBatch {
		t.Fatalf("dataset too small: %d samples", len(smallDS.Samples))
	}
	for _, backend := range []string{"f64", "f32"} {
		cfg := LSTGATConfig{AttnDim: 12, GATOut: 12, HiddenDim: 12, Z: 5, LR: 0.005, Backend: backend}
		m := NewLSTGAT(cfg, rand.New(rand.NewSource(33)))
		pool := make([]*phantom.Graph, 2*maxBatch)
		want := make([]Prediction, len(pool))
		wantAttn := make([][][]float64, len(pool))
		for i := range pool {
			pool[i] = smallDS.Samples[i*len(smallDS.Samples)/len(pool)].Graph
			want[i] = m.Predict(pool[i])
			for _, row := range m.LastAttention() {
				wantAttn[i] = append(wantAttn[i], append([]float64(nil), row...))
			}
		}
		for _, procs := range []int{1, 2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for n := 1; n <= maxBatch; n++ {
				off := (n * 5) % (len(pool) - n + 1)
				gs := pool[off : off+n]
				got := make([]Prediction, n)
				m.PredictBatch(gs, got)
				for i := range gs {
					if !samePredictionBits(got[i], want[off+i]) {
						t.Fatalf("%s GOMAXPROCS=%d n=%d graph %d: sharded prediction differs from serial Predict",
							backend, procs, n, i)
					}
				}
				attn := m.LastAttention()
				if len(attn) != n*phantom.NumSlots {
					t.Fatalf("%s GOMAXPROCS=%d n=%d: %d attention rows, want %d",
						backend, procs, n, len(attn), n*phantom.NumSlots)
				}
				for i := range gs {
					for s, row := range attn[i*phantom.NumSlots : (i+1)*phantom.NumSlots] {
						ref := wantAttn[off+i][s]
						if len(row) != len(ref) {
							t.Fatalf("%s GOMAXPROCS=%d n=%d graph %d slot %d: %d weights, want %d",
								backend, procs, n, i, s, len(row), len(ref))
						}
						for k := range row {
							if math.Float64bits(row[k]) != math.Float64bits(ref[k]) {
								t.Fatalf("%s GOMAXPROCS=%d n=%d graph %d slot %d: attention %d differs from serial",
									backend, procs, n, i, s, k)
							}
						}
					}
				}
			}
		}
	}
}

// samePredictionBits compares two predictions bit for bit (== would equate
// +0 with −0 and never match a NaN).
func samePredictionBits(a, b Prediction) bool {
	for s := range a {
		for d := range a[s] {
			if math.Float64bits(a[s][d]) != math.Float64bits(b[s][d]) {
				return false
			}
		}
	}
	return true
}

// TestPredictBatchShardedBitIdentityAfterTrain interleaves optimizer steps
// with sharded PredictBatch calls: the views share the model's parameters,
// so each call must follow the freshly trained weights, and the first
// forward after every Touch rebuilds the cached weight views from several
// shards at once (the race detector's case).
func TestPredictBatchShardedBitIdentityAfterTrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, backend := range []string{"f64", "f32"} {
		cfg := LSTGATConfig{AttnDim: 12, GATOut: 12, HiddenDim: 12, Z: 5, LR: 0.005, Backend: backend}
		m := NewLSTGAT(cfg, rand.New(rand.NewSource(34)))
		gs := make([]*phantom.Graph, 8)
		for i := range gs {
			gs[i] = smallDS.Samples[i].Graph
		}
		got := make([]Prediction, len(gs))
		for step := 0; step < 3; step++ {
			m.TrainBatch(smallDS.Samples[8:12])
			m.PredictBatch(gs, got)
			for i, g := range gs {
				if !samePredictionBits(got[i], m.Predict(g)) {
					t.Fatalf("%s step %d graph %d: sharded prediction differs from serial after training", backend, step, i)
				}
			}
		}
	}
}
