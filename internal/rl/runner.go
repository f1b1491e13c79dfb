package rl

import (
	"context"
	"math"
	"time"

	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
)

// EpisodeResult summarizes one episode.
type EpisodeResult struct {
	TotalReward float64
	Steps       int
	Done        bool
}

// RunEpisode rolls one episode. With learn true the agent explores and
// observes every transition; otherwise it acts greedily and learns
// nothing.
func RunEpisode(agent Agent, env Env, maxSteps int, learn bool) EpisodeResult {
	return runEpisodeTraced(agent, env, 0, maxSteps, learn, nil)
}

// runEpisodeTraced is RunEpisode with an optional span lane: the episode
// becomes an episode span, each step a (sampled) step span with the
// agent's action selection as a bpdqn_forward phase; the environment and
// agent contribute their own phases through span.Traceable. A nil lane
// costs nothing.
func runEpisodeTraced(agent Agent, env Env, episode, maxSteps int, learn bool, lane *span.Lane) EpisodeResult {
	er := lane.StartEpisode(episode)
	// Environments reuse one state buffer across steps, so Step overwrites
	// the slice Reset returned. The loop keeps its own copy of sᵗ: it is
	// what Act sees and what the transition stores as State while the
	// environment's buffer already holds sᵗ⁺¹ (Observe's replay Push then
	// deep-copies both sides).
	state := append([]float64(nil), env.Reset()...)
	var res EpisodeResult
	for step := 0; step < maxSteps; step++ {
		sr := lane.StartStep(step)
		fw := lane.Start("bpdqn_forward")
		act := agent.Act(state, learn)
		fw.End()
		next, r, done := env.Step(act.B, act.A)
		if learn {
			agent.Observe(Transition{State: state, Action: act, Reward: r, Next: next, Done: done})
		}
		sr.End()
		res.TotalReward += r
		res.Steps++
		state = append(state[:0], next...)
		if done {
			res.Done = true
			break
		}
	}
	er.End()
	return res
}

// TrainResult reports a training run.
type TrainResult struct {
	EpisodeRewards []float64
	// TCT is the training convergence time (wall clock), the efficiency
	// metric of Table VI.
	TCT time.Duration
}

// Optional introspection interfaces instrumentation probes for. Agents and
// environments implement whichever are cheap; TrainObserved type-asserts
// and reports zero for the rest.
type (
	// EpsilonReporter exposes the current ε-greedy exploration rate.
	EpsilonReporter interface{ Epsilon() float64 }
	// ReplayReporter exposes the replay-buffer occupancy.
	ReplayReporter interface{ ReplayLen() int }
	// LossReporter exposes the loss of the most recent training minibatch.
	LossReporter interface{ LastLoss() float64 }
	// CollisionReporter exposes whether the current episode collided; HEAD
	// environments implement it so training curves can count crashes.
	CollisionReporter interface{ Collided() bool }
)

// EpisodeStats is the per-episode observation TrainObserved hands to its
// sink: the training curve a run is diagnosed from.
type EpisodeStats struct {
	Episode   int
	Reward    float64
	Steps     int
	Done      bool
	Collision bool
	Epsilon   float64
	Loss      float64
	ReplayLen int
}

// Instrumentation is the out-of-band observation config for TrainObserved.
// The zero value disables everything; any subset of the sinks may be set.
// Nothing recorded here feeds back into training — instrumented and plain
// runs produce bit-identical weights and episode rewards.
type Instrumentation struct {
	// Metrics receives rl.* counters, gauges, and histograms.
	Metrics *obs.Registry
	// Progress receives a throttled per-episode heartbeat line.
	Progress *obs.Progress
	// OnEpisode is called after every episode (e.g. to snapshot a JSONL
	// time series alongside checkpoints).
	OnEpisode func(EpisodeStats)
	// Trace is the span lane the run's episode/step/phase spans and
	// decision records flow onto; agents and environments implementing
	// span.Traceable are attached to it for the duration of the run. Like
	// the other sinks it is strictly out of band.
	Trace *span.Lane
}

// episodeRewardBuckets span the per-episode total rewards seen across the
// quick/record/paper scales.
var episodeRewardBuckets = []float64{-200, -100, -50, -20, -10, -5, 0, 5, 10, 20, 50, 100, 200, 500}

// Train runs learning episodes and records each episode's total reward.
func Train(agent Agent, env Env, episodes, maxSteps int) TrainResult {
	return TrainObserved(agent, env, episodes, maxSteps, Instrumentation{})
}

// TrainObserved is Train with live observability: per-episode reward,
// steps, epsilon, loss, replay occupancy, and collisions flow to the
// configured sinks while the run is still going.
func TrainObserved(agent Agent, env Env, episodes, maxSteps int, ins Instrumentation) TrainResult {
	start := time.Now()
	var res TrainResult
	observed := ins.Metrics != nil || ins.Progress != nil || ins.OnEpisode != nil
	if ins.Trace != nil {
		if t, ok := agent.(span.Traceable); ok {
			t.SetTrace(ins.Trace)
			defer t.SetTrace(nil)
		}
		if t, ok := env.(span.Traceable); ok {
			t.SetTrace(ins.Trace)
			defer t.SetTrace(nil)
		}
	}
	for e := 0; e < episodes; e++ {
		epStart := time.Now()
		r := runEpisodeTraced(agent, env, e, maxSteps, true, ins.Trace)
		res.EpisodeRewards = append(res.EpisodeRewards, r.TotalReward)
		if !observed {
			continue
		}
		st := EpisodeStats{Episode: e, Reward: r.TotalReward, Steps: r.Steps, Done: r.Done}
		if er, ok := agent.(EpsilonReporter); ok {
			st.Epsilon = er.Epsilon()
		}
		if lr, ok := agent.(LossReporter); ok {
			st.Loss = lr.LastLoss()
		}
		if rr, ok := agent.(ReplayReporter); ok {
			st.ReplayLen = rr.ReplayLen()
		}
		if cr, ok := env.(CollisionReporter); ok {
			st.Collision = cr.Collided()
		}
		if m := ins.Metrics; m != nil {
			m.Counter("rl.episodes").Inc()
			m.Counter("rl.steps").Add(int64(st.Steps))
			if st.Collision {
				m.Counter("rl.collisions").Inc()
			}
			m.Gauge("rl.epsilon").Set(st.Epsilon)
			m.Gauge("rl.loss").Set(st.Loss)
			m.Gauge("rl.replay_len").Set(float64(st.ReplayLen))
			m.Gauge("rl.last_episode_reward").Set(st.Reward)
			m.Histogram("rl.episode_reward", episodeRewardBuckets...).Observe(st.Reward)
			m.Histogram("rl.episode_seconds").Observe(time.Since(epStart).Seconds())
		}
		ins.Progress.Heartbeat("rl: episode %d/%d  reward %.2f  steps %d  eps %.3f  loss %.4f  buffer %d",
			e+1, episodes, st.Reward, st.Steps, st.Epsilon, st.Loss, st.ReplayLen)
		if ins.OnEpisode != nil {
			ins.OnEpisode(st)
		}
	}
	res.TCT = time.Since(start)
	return res
}

// RewardStats are the effectiveness metrics of Table V: the minimum,
// maximum, and average per-step reward observed over greedy test episodes.
type RewardStats struct {
	Min, Max, Avg float64
	Steps         int
}

// EvaluateAgent runs greedy episodes and aggregates per-step rewards.
func EvaluateAgent(agent Agent, env Env, episodes, maxSteps int) RewardStats {
	stats := RewardStats{Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	for e := 0; e < episodes; e++ {
		state := env.Reset()
		for step := 0; step < maxSteps; step++ {
			act := agent.Act(state, false)
			next, r, done := env.Step(act.B, act.A)
			stats.Min = math.Min(stats.Min, r)
			stats.Max = math.Max(stats.Max, r)
			total += r
			stats.Steps++
			state = next
			if done {
				break
			}
		}
	}
	if stats.Steps > 0 {
		stats.Avg = total / float64(stats.Steps)
	} else {
		stats.Min, stats.Max = 0, 0
	}
	return stats
}

// EvaluateAgentParallel runs greedy test episodes concurrently on at most
// workers goroutines (0 means all cores). setup(ep) must return an agent
// replica and environment owned by that episode alone — the networks
// cache forward activations, so a trained agent must be copied (same
// constructor plus nn.CopyParams) rather than shared — with the
// environment RNG derived from the episode index. Per-episode statistics
// are reduced in episode order, so the result is bit-identical for every
// worker count.
func EvaluateAgentParallel(episodes, maxSteps, workers int, setup func(episode int) (Agent, Env)) RewardStats {
	type partial struct {
		min, max, total float64
		steps           int
	}
	parts, _ := parallel.Map(context.Background(), episodes, workers, func(ep int) (partial, error) {
		agent, env := setup(ep)
		p := partial{min: math.Inf(1), max: math.Inf(-1)}
		state := env.Reset()
		for step := 0; step < maxSteps; step++ {
			act := agent.Act(state, false)
			next, r, done := env.Step(act.B, act.A)
			p.min = math.Min(p.min, r)
			p.max = math.Max(p.max, r)
			p.total += r
			p.steps++
			state = next
			if done {
				break
			}
		}
		return p, nil
	})
	stats := RewardStats{Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	for _, p := range parts {
		stats.Min = math.Min(stats.Min, p.min)
		stats.Max = math.Max(stats.Max, p.max)
		total += p.total
		stats.Steps += p.steps
	}
	if stats.Steps > 0 {
		stats.Avg = total / float64(stats.Steps)
	} else {
		stats.Min, stats.Max = 0, 0
	}
	return stats
}

// AvgInferenceTime measures the mean wall-clock duration of one greedy
// action selection — the AvgIT metric of Table VI. The first selection is
// a discarded warm-up (it pays one-time allocation and cache-fill costs),
// and the environment is stepped between samples so the mean reflects
// steady-state inference over the state distribution the policy actually
// visits, not repeated evaluation of one initial state. Only the Act calls
// are timed; environment stepping is excluded.
func AvgInferenceTime(agent Agent, env Env, samples int) time.Duration {
	if samples <= 0 {
		return 0
	}
	state := env.Reset()
	agent.Act(state, false) // warm-up, excluded from the average
	var total time.Duration
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		act := agent.Act(state, false)
		total += time.Since(t0)
		next, _, done := env.Step(act.B, act.A)
		if done {
			state = env.Reset()
		} else {
			state = next
		}
	}
	return total / time.Duration(samples)
}
