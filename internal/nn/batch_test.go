package nn

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

func fillRand(m *tensor.Matrix, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(5)-2))
	}
}

func matBitsEqual(t *testing.T, what string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, v, b.Data[i])
		}
	}
}

func cloneMat(m *tensor.Matrix) *tensor.Matrix {
	c := tensor.New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// TestForwardBatchBitIdentity checks the row-independence contract that
// lets one forward serve a whole batch: the rows of an N-row Linear or
// Sequential forward equal N one-row forwards bit for bit.
func TestForwardBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(10)
		out := 1 + rng.Intn(12)
		rows := 1 + rng.Intn(12)

		lin := NewLinear("lin", in, out, rng)
		seqNet := NewMLP("mlp", []int{in, 2 + rng.Intn(8), out}, rng)
		stacked := tensor.New(rows, in)
		fillRand(stacked, rng)

		for name, net := range map[string]interface {
			Forward(*tensor.Matrix) *tensor.Matrix
		}{"Linear": lin, "Sequential": seqNet} {
			var single []*tensor.Matrix
			for r := 0; r < rows; r++ {
				x := tensor.FromSlice(1, in, append([]float64(nil), stacked.Row(r)...))
				single = append(single, cloneMat(net.Forward(x)))
			}
			batched := net.Forward(stacked)
			for r := 0; r < rows; r++ {
				for j := 0; j < out; j++ {
					want := single[r].At(0, j)
					got := batched.At(r, j)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("%s row %d col %d: one-row %v vs %d-row %v", name, r, j, want, rows, got)
					}
				}
			}
		}
	}
}

// TestLSTMForwardBatchBitIdentity covers the fused inference-only LSTM
// pass: same-input identity, row-stacking identity, and the Backward
// poisoning contract.
func TestLSTMForwardBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(8)
		hidden := 1 + rng.Intn(9)
		steps := 1 + rng.Intn(6)
		rows := 1 + rng.Intn(5)
		nEnv := 1 + rng.Intn(4)
		l := NewLSTM("lstm", in, hidden, rng)

		seqs := make([][]*tensor.Matrix, nEnv)
		stacked := make([]*tensor.Matrix, steps)
		for tt := range stacked {
			stacked[tt] = tensor.New(nEnv*rows, in)
		}
		for e := range seqs {
			seqs[e] = make([]*tensor.Matrix, steps)
			for tt := range seqs[e] {
				x := tensor.New(rows, in)
				fillRand(x, rng)
				seqs[e][tt] = x
				copy(stacked[tt].Data[e*rows*in:], x.Data)
			}
		}

		serial := make([][]*tensor.Matrix, nEnv)
		for e, seq := range seqs {
			hs := l.Forward(seq)
			serial[e] = make([]*tensor.Matrix, steps)
			for tt, h := range hs {
				serial[e][tt] = cloneMat(h)
			}
		}
		sameIn := l.ForwardBatch(seqs[0])
		for tt := range sameIn {
			matBitsEqual(t, "LSTM same-input", serial[0][tt], sameIn[tt])
		}
		batched := l.ForwardBatch(stacked)
		for tt, h := range batched {
			for e := 0; e < nEnv; e++ {
				for r := 0; r < rows; r++ {
					for j := 0; j < hidden; j++ {
						want := serial[e][tt].At(r, j)
						got := h.At(e*rows+r, j)
						if math.Float64bits(want) != math.Float64bits(got) {
							t.Fatalf("LSTM step %d env %d row %d col %d: %v vs %v", tt, e, r, j, want, got)
						}
					}
				}
			}
		}
		if dx := l.Backward(nil); dx != nil {
			t.Fatal("Backward after ForwardBatch must return nil (poisoned caches)")
		}
	}
}

// TestGATForwardBatchBitIdentity checks the graph-concatenation form of
// batching: N graphs become one node matrix with per-graph node offsets,
// and each graph's target rows of the one concatenated Forward match that
// graph's own Forward bit-for-bit.
func TestGATForwardBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(6)
		attn := 1 + rng.Intn(8)
		out := 1 + rng.Intn(8)
		nodesPer := 4 + rng.Intn(8)
		nTargets := 1 + rng.Intn(3)
		nEnv := 1 + rng.Intn(4)
		g := NewGAT("gat", in, attn, out, rng)
		g.Residual = rng.Intn(2) == 0
		g.Uniform = rng.Intn(4) == 0

		type graph struct {
			nodes     *tensor.Matrix
			targets   []int
			neighbors [][]int
		}
		graphs := make([]graph, nEnv)
		bigNodes := tensor.New(nEnv*nodesPer, in)
		var bigTargets []int
		var bigNeighbors [][]int
		for e := range graphs {
			nodes := tensor.New(nodesPer, in)
			fillRand(nodes, rng)
			copy(bigNodes.Data[e*nodesPer*in:], nodes.Data)
			targets := make([]int, nTargets)
			neighbors := make([][]int, nTargets)
			for i := range targets {
				targets[i] = rng.Intn(nodesPer)
				nbrs := []int{targets[i]}
				for n := rng.Intn(4); n > 0; n-- {
					nbrs = append(nbrs, rng.Intn(nodesPer))
				}
				neighbors[i] = nbrs
				bigTargets = append(bigTargets, targets[i]+e*nodesPer)
				off := make([]int, len(nbrs))
				for k, j := range nbrs {
					off[k] = j + e*nodesPer
				}
				bigNeighbors = append(bigNeighbors, off)
			}
			graphs[e] = graph{nodes, targets, neighbors}
		}

		serial := make([]*tensor.Matrix, nEnv)
		for e, gr := range graphs {
			serial[e] = cloneMat(g.Forward(gr.nodes, gr.targets, gr.neighbors))
		}
		batched := g.Forward(bigNodes, bigTargets, bigNeighbors)
		for e := 0; e < nEnv; e++ {
			for i := 0; i < nTargets; i++ {
				for j := 0; j < out; j++ {
					want := serial[e].At(i, j)
					got := batched.At(e*nTargets+i, j)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("GAT env %d target %d col %d: %v vs %v", e, i, j, want, got)
					}
				}
			}
		}
	}
}
