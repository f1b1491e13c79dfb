package rl

import (
	"math"
	"math/rand"
	"testing"
)

// randStates draws n random augmented states for spec.
func randStates(spec StateSpec, n int, rng *rand.Rand) [][]float64 {
	states := make([][]float64, n)
	for i := range states {
		s := make([]float64, spec.Dim())
		for j := range s {
			s[j] = rng.Float64()*2 - 1
		}
		states[i] = s
	}
	return states
}

// TestSelectActionBatchBitIdentity pins the agent-level contract of the
// batched execution engine: SelectActionBatch over N states equals N
// serial greedy Acts bit-for-bit, for both the branched (BP-DQN) and the
// shared (P-DQN) network families, across batch sizes and repeated calls.
func TestSelectActionBatchBitIdentity(t *testing.T) {
	spec := DefaultStateSpec()
	agents := []struct {
		name string
		mk   func() *PDQN
	}{
		{"BP-DQN", func() *PDQN {
			return NewBPDQN(fastCfg(), spec, 3, 8, rand.New(rand.NewSource(70)))
		}},
		{"P-DQN", func() *PDQN {
			return NewVanillaPDQN(fastCfg(), spec, 3, 8, rand.New(rand.NewSource(70)))
		}},
	}
	for _, tc := range agents {
		agent := tc.mk()
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(9)
			states := randStates(spec, n, rng)
			want := make([]Action, n)
			for i, s := range states {
				a := agent.Act(s, false)
				raw := append([]float64(nil), a.Raw...)
				a.Raw = raw
				want[i] = a
			}
			got := make([]Action, n)
			agent.SelectActionBatch(states, got)
			for i := range states {
				if want[i].B != got[i].B {
					t.Fatalf("%s trial %d state %d: behavior %d vs %d", tc.name, trial, i, want[i].B, got[i].B)
				}
				if math.Float64bits(want[i].A) != math.Float64bits(got[i].A) {
					t.Fatalf("%s trial %d state %d: accel %v vs %v", tc.name, trial, i, want[i].A, got[i].A)
				}
				for j := range want[i].Raw {
					if math.Float64bits(want[i].Raw[j]) != math.Float64bits(got[i].Raw[j]) {
						t.Fatalf("%s trial %d state %d raw %d: %v vs %v",
							tc.name, trial, i, j, want[i].Raw[j], got[i].Raw[j])
					}
				}
			}
			// A serial greedy Act after the batched pass must be untouched.
			again := agent.Act(states[0], false)
			if again.B != want[0].B || math.Float64bits(again.A) != math.Float64bits(want[0].A) {
				t.Fatalf("%s trial %d: serial Act perturbed after SelectActionBatch", tc.name, trial)
			}
		}
	}
}

// TestTargetValuesBatchMatchesSerial pins the minibatch TD targets: the
// one target-network forward pair over all non-terminal next states must
// equal, bit for bit, y = r + γ·max_b Q_T computed from a one-state forward
// per transition, on a mixed done/non-done minibatch (and on an all-done
// one, where no forward runs).
func TestTargetValuesBatchMatchesSerial(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(90))
	cfg := fastCfg()
	agent := NewBPDQN(cfg, spec, 3, 8, rand.New(rand.NewSource(91)))
	states := randStates(spec, 12, rng)
	nexts := randStates(spec, 12, rng)
	batch := make([]Transition, 12)
	for i := range batch {
		batch[i] = Transition{
			State:  states[i],
			Next:   nexts[i],
			Reward: rng.NormFloat64(),
			Done:   i%5 == 4,
			Action: Action{B: i % NumBehaviors, Raw: []float64{0.1, -0.2, 0.3}},
		}
	}
	want := make([]float64, len(batch))
	for k, tr := range batch {
		want[k] = tr.Reward
		if !tr.Done {
			one := [][]float64{tr.Next}
			q := agent.qT.Forward(one, agent.xT.Forward(one))
			want[k] += cfg.Gamma * q.At(0, q.ArgmaxRow(0))
		}
	}
	got := agent.targetValues(batch)
	for k := range want {
		if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
			t.Fatalf("target %d: one-state %v minibatch %v", k, want[k], got[k])
		}
	}
	for i := range batch {
		batch[i].Done = true
	}
	for k, y := range agent.targetValues(batch) {
		if math.Float64bits(y) != math.Float64bits(batch[k].Reward) {
			t.Fatalf("all-done target %d: %v, want the reward %v", k, y, batch[k].Reward)
		}
	}
}
