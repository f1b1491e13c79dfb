package obs

import "time"

// SLOConfig parameterizes a rolling-window SLO engine. The zero value is
// usable: a 60-second window of WindowBuckets sub-buckets with no
// objectives (the engine then only reports observed latency/error rates).
type SLOConfig struct {
	// Window is the rolling evaluation window (default 60s). Observations
	// older than one window no longer influence the status.
	Window time.Duration
	// LatencyBounds are the histogram bucket upper edges, in seconds,
	// used for the p50/p90/p99 estimates (default ServeLatencyBuckets).
	LatencyBounds []float64

	// P50TargetMs / P99TargetMs are latency objectives in milliseconds: at
	// most 50% (resp. 1%) of windowed requests may exceed the target. Zero
	// disables the objective.
	P50TargetMs float64
	P99TargetMs float64
	// ErrorBudget is the allowed windowed error-rate fraction (e.g. 0.01
	// = 1% of requests may fail). Zero disables the objective.
	ErrorBudget float64

	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// ServeLatencyBuckets are the default SLO latency histogram bounds,
// spanning sub-millisecond batched decides to multi-second outliers.
var ServeLatencyBuckets = []float64{
	0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if len(c.LatencyBounds) == 0 {
		c.LatencyBounds = ServeLatencyBuckets
	}
	return c
}

// sloBucket is one sub-window of the rolling window.
type sloBucket struct {
	total   int64
	errors  int64
	overP50 int64
	overP99 int64
	sum     float64
	hist    []int64 // len(bounds)+1, last is overflow
}

// SLO is a rolling-window service-level-objective engine: it folds every
// request's latency and error outcome into a rolling Window
// and evaluates latency-percentile and error-rate objectives with
// burn-rate semantics (burn rate 1.0 = consuming the error budget exactly
// as fast as the objective allows; >1 = the objective is being violated).
//
// Like every obs component it is strictly out of band — nothing it
// records feeds back into serving decisions — and safe for concurrent
// use. A nil *SLO disables all methods.
type SLO struct {
	cfg SLOConfig
	win *Window[sloBucket]
}

// NewSLO returns an SLO engine with the given configuration.
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	nHist := len(cfg.LatencyBounds) + 1
	win := NewWindow(WindowBuckets, cfg.Window/WindowBuckets, cfg.Clock, func(b *sloBucket) {
		hist := b.hist
		if hist == nil {
			hist = make([]int64, nHist)
		}
		clear(hist)
		*b = sloBucket{hist: hist}
	})
	return &SLO{cfg: cfg, win: win}
}

// Observe folds one completed request into the current sub-window.
func (s *SLO) Observe(latency time.Duration, isErr bool) {
	if s == nil {
		return
	}
	lat := latency.Seconds()
	latMs := lat * 1e3
	overP50 := s.cfg.P50TargetMs > 0 && latMs > s.cfg.P50TargetMs
	overP99 := s.cfg.P99TargetMs > 0 && latMs > s.cfg.P99TargetMs
	// First bound >= lat, linear scan: the bounds list is short and the
	// scan is branch-predictable, so this stays cheap on the reply path.
	i := 0
	for i < len(s.cfg.LatencyBounds) && lat > s.cfg.LatencyBounds[i] {
		i++
	}
	s.win.Observe(func(b *sloBucket) {
		b.total++
		b.sum += lat
		if isErr {
			b.errors++
		}
		if overP50 {
			b.overP50++
		}
		if overP99 {
			b.overP99++
		}
		b.hist[i]++
	})
}

// Objective is one evaluated SLO: the configured target, the fraction of
// the budget allowed to violate it, the observed violating fraction, and
// the burn rate (observed / budget; ≤ 1 means the objective holds).
type Objective struct {
	Name     string  `json:"name"`
	TargetMs float64 `json:"target_ms,omitempty"`
	Budget   float64 `json:"budget"`
	Observed float64 `json:"observed"`
	BurnRate float64 `json:"burn_rate"`
	OK       bool    `json:"ok"`
}

// SLOStatus is one windowed evaluation snapshot, the body of /debug/slo.
type SLOStatus struct {
	WindowS    float64     `json:"window_s"`
	Total      int64       `json:"total"`
	Errors     int64       `json:"errors"`
	ErrorRate  float64     `json:"error_rate"`
	MeanMs     float64     `json:"mean_ms"`
	P50Ms      float64     `json:"p50_ms"`
	P90Ms      float64     `json:"p90_ms"`
	P99Ms      float64     `json:"p99_ms"`
	Objectives []Objective `json:"objectives,omitempty"`
	OK         bool        `json:"ok"`
}

// Status evaluates the rolling window: merged latency estimates, the
// windowed error rate, and one burn-rate row per configured objective.
// An empty window (no traffic) reports OK.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{OK: true}
	}
	var total, errors, overP50, overP99 int64
	var sum float64
	merged := make([]int64, len(s.cfg.LatencyBounds)+1)
	s.win.Each(func(b *sloBucket) {
		total += b.total
		errors += b.errors
		overP50 += b.overP50
		overP99 += b.overP99
		sum += b.sum
		for j, c := range b.hist {
			merged[j] += c
		}
	})
	st := SLOStatus{
		WindowS: s.cfg.Window.Seconds(),
		Total:   total,
		Errors:  errors,
		OK:      true,
	}
	if total > 0 {
		st.ErrorRate = float64(errors) / float64(total)
		st.MeanMs = sum / float64(total) * 1e3
		st.P50Ms = histQuantile(s.cfg.LatencyBounds, merged, total, 0.50) * 1e3
		st.P90Ms = histQuantile(s.cfg.LatencyBounds, merged, total, 0.90) * 1e3
		st.P99Ms = histQuantile(s.cfg.LatencyBounds, merged, total, 0.99) * 1e3
	}
	addObjective := func(name string, targetMs, budget float64, violating int64) {
		if budget <= 0 {
			return
		}
		o := Objective{Name: name, TargetMs: targetMs, Budget: budget}
		if total > 0 {
			o.Observed = float64(violating) / float64(total)
		}
		o.BurnRate = o.Observed / budget
		o.OK = o.BurnRate <= 1
		if !o.OK {
			st.OK = false
		}
		st.Objectives = append(st.Objectives, o)
	}
	if s.cfg.P50TargetMs > 0 {
		addObjective("p50_latency", s.cfg.P50TargetMs, 0.50, overP50)
	}
	if s.cfg.P99TargetMs > 0 {
		addObjective("p99_latency", s.cfg.P99TargetMs, 0.01, overP99)
	}
	if s.cfg.ErrorBudget > 0 {
		addObjective("error_rate", 0, s.cfg.ErrorBudget, errors)
	}
	return st
}

// histQuantile estimates the q-quantile from fixed-bucket counts, linear
// inside the winning bucket — the obs.Histogram estimate over plain
// slices, shared by the merged-window evaluation.
func histQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, bound := range bounds {
		c := float64(counts[i])
		if seen+c >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bound-lo)*((rank-seen)/c)
		}
		seen += c
	}
	return bounds[len(bounds)-1]
}

// Bind exports the rolling evaluation into reg under prefix (e.g.
// "slo"): gauges for the windowed p50/p99/error rate, the worst
// objective burn rate, and an objectives-violated count, refreshed by a
// scrape hook each time the registry is exposed — so /metrics and the
// manifest's final snapshot carry live SLO state with no extra plumbing.
func (s *SLO) Bind(reg *Registry, prefix string) {
	if s == nil || reg == nil {
		return
	}
	p50 := reg.Gauge(prefix + ".p50_ms")
	p99 := reg.Gauge(prefix + ".p99_ms")
	errRate := reg.Gauge(prefix + ".error_rate")
	burn := reg.Gauge(prefix + ".burn_max")
	violated := reg.Gauge(prefix + ".violated")
	reg.AddScrapeHook(func() {
		st := s.Status()
		p50.Set(st.P50Ms)
		p99.Set(st.P99Ms)
		errRate.Set(st.ErrorRate)
		maxBurn, bad := 0.0, 0
		for _, o := range st.Objectives {
			if o.BurnRate > maxBurn {
				maxBurn = o.BurnRate
			}
			if !o.OK {
				bad++
			}
		}
		burn.Set(maxBurn)
		violated.Set(float64(bad))
	})
}
