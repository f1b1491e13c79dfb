// Package rl implements the maneuver decision learning of Section IV: the
// Parameterized Action Markov Decision Process (PAMDP) with the discrete
// lane-change behaviors {ll, lr, lk} each parameterized by a continuous
// longitudinal acceleration, and four solvers — the paper's BP-DQN
// (branched parameterized deep Q-network, Figure 6), the vanilla P-DQN it
// improves on, P-DDPG (the collapsed-action-space approach), and P-QP (the
// alternating-optimization approach).
package rl

import (
	"fmt"
	"math/rand"
)

// NumBehaviors is the size of the discrete action set {ll, lr, lk}.
const NumBehaviors = 3

// Action is one parameterized action: a discrete behavior index B (the
// ordering matches world.Behavior: 0 = ll, 1 = lr, 2 = lk), the executed
// continuous acceleration A, and the raw action-parameter vector the agent
// produced (stored in the replay buffer; its layout is agent-specific).
type Action struct {
	B   int
	A   float64
	Raw []float64
}

// Transition is one PAMDP step stored for experience replay. Replay
// buffers deep-copy State, Next, and Action.Raw on Push, so callers are
// free to reuse the backing slices (environments return a shared state
// buffer and agents a shared raw-action buffer on the zero-allocation hot
// path).
type Transition struct {
	State  []float64
	Action Action
	Reward float64
	Next   []float64
	Done   bool
}

// copyTransition copies tr into the ring slot, reusing the slot's existing
// slice capacity so a warmed-up buffer stops allocating.
func copyTransition(slot *Transition, tr Transition) {
	slot.State = copyFloats(slot.State, tr.State)
	slot.Action.B = tr.Action.B
	slot.Action.A = tr.Action.A
	slot.Action.Raw = copyFloats(slot.Action.Raw, tr.Action.Raw)
	slot.Reward = tr.Reward
	slot.Next = copyFloats(slot.Next, tr.Next)
	slot.Done = tr.Done
}

// copyFloats copies src into dst, growing dst only when capacity is short.
// A nil src yields a zero-length (or nil) dst, preserving nil-ness checks.
func copyFloats(dst, src []float64) []float64 {
	if src == nil {
		return dst[:0]
	}
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// growFloats resizes a float slice to length n reusing capacity; entries
// are not cleared, callers assign every slot.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StateSpec describes the layout of the augmented state s₊ = [hᵗ, f̂ᵗ⁺¹]:
// NumH current-state rows (the AV plus the six targets), NumF future-state
// rows (the six targets), each FeatDim wide, flattened row-major.
type StateSpec struct {
	NumH, NumF, FeatDim int
}

// DefaultStateSpec is the paper's augmented state: h ∈ R^{4×7},
// f̂ ∈ R^{4×6}.
func DefaultStateSpec() StateSpec { return StateSpec{NumH: 7, NumF: 6, FeatDim: 4} }

// Dim returns the flattened state width.
func (s StateSpec) Dim() int { return (s.NumH + s.NumF) * s.FeatDim }

// HLen returns the number of scalars in the h part.
func (s StateSpec) HLen() int { return s.NumH * s.FeatDim }

// Env is an episodic PAMDP environment.
type Env interface {
	// Reset starts a new episode and returns the initial augmented state.
	Reset() []float64
	// Step performs behavior b with acceleration a and returns the next
	// state, the hybrid reward, and whether the episode ended.
	Step(b int, a float64) (next []float64, reward float64, done bool)
	// Spec describes the state layout.
	Spec() StateSpec
	// AMax is the acceleration bound a′.
	AMax() float64
}

// Agent is a PAMDP policy that can act and learn from transitions.
type Agent interface {
	// Name identifies the agent in reports (e.g. "BP-DQN").
	Name() string
	// Act selects an action for the state; explore enables ε-greedy
	// discrete exploration and parameter noise.
	Act(state []float64, explore bool) Action
	// Observe stores a transition and performs any scheduled training.
	Observe(tr Transition)
}

// Replay is a fixed-capacity ring buffer of transitions with uniform
// sampling, the replay buffer B of Equation (22).
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay returns a replay buffer holding up to capacity transitions.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity must be positive, got %d", capacity))
	}
	return &Replay{buf: make([]Transition, 0, capacity)}
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int {
	if r.full {
		return cap(r.buf)
	}
	return len(r.buf)
}

// Push deep-copies a transition into the ring, evicting the oldest when
// full. The copy means callers may reuse tr's backing slices immediately;
// a warmed-up ring reuses each slot's slice storage and stops allocating.
func (r *Replay) Push(tr Transition) {
	if r.full {
		copyTransition(&r.buf[r.next], tr)
		r.next = (r.next + 1) % cap(r.buf)
		return
	}
	r.buf = append(r.buf, Transition{})
	copyTransition(&r.buf[len(r.buf)-1], tr)
	if len(r.buf) == cap(r.buf) {
		r.full = true
		r.next = 0
	}
}

// Sample returns n uniformly drawn transitions (with replacement). The
// returned transitions alias ring-slot storage: they are valid until the
// next Push, which is safe for the train-step pattern of sampling a batch
// and consuming it fully before observing more transitions.
func (r *Replay) Sample(n int, rng *rand.Rand) []Transition {
	return r.SampleInto(nil, n, rng)
}

// SampleInto is Sample writing into dst (grown as needed), so steady-state
// training samples without allocating. The aliasing rules of Sample apply.
func (r *Replay) SampleInto(dst []Transition, n int, rng *rand.Rand) []Transition {
	if cap(dst) < n {
		dst = make([]Transition, n)
	} else {
		dst = dst[:n]
	}
	m := r.Len()
	for i := range dst {
		dst[i] = r.buf[rng.Intn(m)]
	}
	return dst
}

// EpsSchedule is a linear ε-greedy exploration schedule.
type EpsSchedule struct {
	Start, End float64
	DecaySteps int
}

// At returns ε after the given number of environment steps.
func (e EpsSchedule) At(step int) float64 {
	if e.DecaySteps <= 0 || step >= e.DecaySteps {
		return e.End
	}
	frac := float64(step) / float64(e.DecaySteps)
	return e.Start + (e.End-e.Start)*frac
}

// clamp limits x to [-bound, bound].
func clamp(x, bound float64) float64 {
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}
