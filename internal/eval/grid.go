package eval

import (
	"context"
	"fmt"

	"head/internal/parallel"
	"head/internal/reward"
)

// Axis is one coefficient sweep of the Table VII grid search.
type Axis struct {
	Name     string // "w1".."w4"
	Min, Max float64
	Step     float64
}

// PaperAxes returns the sweep ranges of Table VII.
func PaperAxes() []Axis {
	return []Axis{
		{Name: "w1", Min: 0.5, Max: 1, Step: 0.1},
		{Name: "w2", Min: 0, Max: 1, Step: 0.2},
		{Name: "w3", Min: 0, Max: 1, Step: 0.2},
		{Name: "w4", Min: 0, Max: 0.5, Step: 0.1},
	}
}

// withCoefficient returns base with the named coefficient replaced.
func withCoefficient(base reward.Weights, name string, v float64) (reward.Weights, error) {
	switch name {
	case "w1":
		base.Safety = v
	case "w2":
		base.Efficiency = v
	case "w3":
		base.Comfort = v
	case "w4":
		base.Impact = v
	default:
		return base, fmt.Errorf("eval: unknown coefficient %q", name)
	}
	return base, nil
}

// AxisResult reports one swept coefficient.
type AxisResult struct {
	Axis   Axis
	Values []float64
	Scores []float64
	Best   float64 // the value with the highest score
}

// SearchWeightsParallel performs the coordinate-wise grid search of Table
// VII: each axis is swept with the other coefficients held at the base
// vector, scored by the provided function (typically: train a small agent
// under those weights and return its average test reward). The paper's
// full grid is the cross product; the coordinate sweep reproduces its
// reported per-coefficient table at a fraction of the cost. The grid
// points of every axis are evaluated concurrently on at most workers
// goroutines (0 means all cores). The score function must therefore be safe to call from multiple
// goroutines — every call should build its own models and environments
// rather than closing over shared mutable state. Points are scored
// independently and reduced in grid order, so the result is identical for
// any worker count.
func SearchWeightsParallel(base reward.Weights, axes []Axis, workers int, score func(reward.Weights) float64) ([]AxisResult, error) {
	type point struct {
		axis  int
		value float64
		w     reward.Weights
	}
	var points []point
	for ai, ax := range axes {
		if ax.Step <= 0 || ax.Max < ax.Min {
			return nil, fmt.Errorf("eval: invalid axis %+v", ax)
		}
		for v := ax.Min; v <= ax.Max+1e-9; v += ax.Step {
			w, err := withCoefficient(base, ax.Name, v)
			if err != nil {
				return nil, err
			}
			points = append(points, point{axis: ai, value: v, w: w})
		}
	}
	scores, err := parallel.Map(context.Background(), len(points), workers, func(i int) (float64, error) {
		return score(points[i].w), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]AxisResult, len(axes))
	best := make([]float64, len(axes))
	for i := range axes {
		out[i] = AxisResult{Axis: axes[i]}
	}
	for i, p := range points {
		res := &out[p.axis]
		s := scores[i]
		res.Values = append(res.Values, p.value)
		res.Scores = append(res.Scores, s)
		if len(res.Values) == 1 || s > best[p.axis] {
			best[p.axis], res.Best = s, p.value
		}
	}
	return out, nil
}
