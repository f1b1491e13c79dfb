package quality

import (
	"time"

	"head/internal/obs"
)

// MonitorConfig parameterizes the online drift monitor. The zero value is
// usable: a 60-second window of obs.WindowBuckets sub-buckets, warn at
// PSI 0.25 and page at twice that — the standard PSI reading (below 0.1
// stable, 0.1–0.25 moderate shift, above 0.25 major shift).
type MonitorConfig struct {
	// Window is the rolling comparison window (default 60s); decisions
	// older than one window no longer influence the PSI scores.
	Window time.Duration
	// WarnPSI and PagePSI are the per-metric drift thresholds (defaults
	// 0.25 and 2×WarnPSI). The worst metric sets the overall status.
	WarnPSI float64
	PagePSI float64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.WarnPSI <= 0 {
		c.WarnPSI = 0.25
	}
	if c.PagePSI <= 0 {
		c.PagePSI = 2 * c.WarnPSI
	}
	return c
}

// qualityBucket is one sub-window of the rolling window: per-metric
// histograms over the baseline's bins.
type qualityBucket struct {
	metrics map[string]*Hist
	samples int64
}

// Monitor scores the live decision stream against a behavioral baseline:
// every served decision folds into the current sub-window's histograms
// in a rolling obs.Window (cloned bins from the baseline, so the
// comparison can never mismatch), and Status merges the live window and
// computes PSI/KL per metric.
//
// Strictly out of band and safe for concurrent use; a nil *Monitor
// disables every method.
type Monitor struct {
	cfg  MonitorConfig
	base *Baseline
	// tracked is the ordered serve-side metric list present in the
	// baseline — ordering fixes the Status row order and the gauge set.
	tracked []string
	win     *obs.Window[qualityBucket]
}

// NewMonitor builds a drift monitor over a loaded baseline. Baselines
// missing serve-side metrics are tolerated (the missing metrics are
// simply not tracked); a baseline with none of them yields a monitor
// that reports zero tracked metrics rather than failing.
func NewMonitor(base *Baseline, cfg MonitorConfig) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{cfg: cfg, base: base}
	for _, name := range ServeMetrics {
		if h := base.Metrics[name]; h != nil {
			m.tracked = append(m.tracked, name)
		}
	}
	m.win = obs.NewWindow(obs.WindowBuckets, cfg.Window/obs.WindowBuckets, cfg.Clock, func(b *qualityBucket) {
		b.samples = 0
		if b.metrics == nil {
			b.metrics = make(map[string]*Hist, len(m.tracked))
			for _, name := range m.tracked {
				b.metrics[name] = NewHist(base.Metrics[name].Bounds)
			}
		}
		for _, h := range b.metrics {
			h.zero()
		}
	})
	return m
}

// Baseline returns the profile the monitor compares against (nil on a
// nil monitor).
func (m *Monitor) Baseline() *Baseline {
	if m == nil {
		return nil
	}
	return m.base
}

// Observe folds one served decision into the current sub-window.
func (m *Monitor) Observe(s Sample) {
	if m == nil {
		return
	}
	m.win.Observe(func(b *qualityBucket) {
		b.samples++
		observeSample(b.metrics, s)
	})
}

// MetricStatus is one metric's windowed drift evaluation.
type MetricStatus struct {
	Name          string  `json:"name"`
	PSI           float64 `json:"psi"`
	KL            float64 `json:"kl"`
	BaselineTotal int64   `json:"baseline_total"`
	WindowTotal   int64   `json:"window_total"`
	Status        string  `json:"status"`
	Error         string  `json:"error,omitempty"`
}

// Status is one drift evaluation snapshot, the body of /debug/quality.
type Status struct {
	BaselineTool  string         `json:"baseline_tool,omitempty"`
	BaselineScale string         `json:"baseline_scale,omitempty"`
	BaselineHash  string         `json:"baseline_hash,omitempty"`
	WindowS       float64        `json:"window_s"`
	Samples       int64          `json:"samples"`
	WarnPSI       float64        `json:"warn_psi"`
	PagePSI       float64        `json:"page_psi"`
	Metrics       []MetricStatus `json:"metrics"`
	WorstPSI      float64        `json:"worst_psi"`
	WorstMetric   string         `json:"worst_metric,omitempty"`
	Status        string         `json:"status"`
	OK            bool           `json:"ok"`
}

// Status evaluates the rolling window against the baseline: per-metric
// PSI/KL with warn/page classification, the worst metric, and the overall
// verdict. An empty window (no traffic) reports ok — no evidence is not
// drift.
func (m *Monitor) Status() Status {
	if m == nil {
		return Status{Status: "ok", OK: true}
	}
	merged := make(map[string]*Hist, len(m.tracked))
	for _, name := range m.tracked {
		merged[name] = NewHist(m.base.Metrics[name].Bounds)
	}
	var samples int64
	m.win.Each(func(b *qualityBucket) {
		samples += b.samples
		for name, h := range b.metrics {
			h.addInto(merged[name])
		}
	})
	st := Status{
		BaselineTool:  m.base.Tool,
		BaselineScale: m.base.Scale,
		BaselineHash:  m.base.ConfigHash,
		WindowS:       m.cfg.Window.Seconds(),
		Samples:       samples,
		WarnPSI:       m.cfg.WarnPSI,
		PagePSI:       m.cfg.PagePSI,
		Metrics:       make([]MetricStatus, 0, len(m.tracked)),
		Status:        "ok",
		OK:            true,
	}
	rank := map[string]int{"ok": 0, "warn": 1, "page": 2}
	for _, name := range m.tracked {
		ms := MetricStatus{
			Name:          name,
			BaselineTotal: m.base.Metrics[name].Total,
			WindowTotal:   merged[name].Total,
			Status:        "ok",
		}
		psi, kl, err := Compare(m.base.Metrics[name], merged[name])
		switch {
		case err != nil:
			// A comparison error is a configuration problem, not drift:
			// surface it on the row and leave the PSI aggregation alone.
			ms.Status, ms.Error = "error", err.Error()
		default:
			ms.PSI, ms.KL = psi, kl
			switch {
			case psi >= m.cfg.PagePSI:
				ms.Status = "page"
			case psi >= m.cfg.WarnPSI:
				ms.Status = "warn"
			}
			if psi > st.WorstPSI || st.WorstMetric == "" {
				st.WorstPSI, st.WorstMetric = psi, name
			}
			if rank[ms.Status] > rank[st.Status] {
				st.Status = ms.Status
			}
		}
		st.Metrics = append(st.Metrics, ms)
	}
	st.OK = st.Status == "ok"
	return st
}

// statusLevel maps the overall verdict onto the quality.status gauge.
func statusLevel(s string) float64 {
	switch s {
	case "warn":
		return 1
	case "page":
		return 2
	default:
		return 0
	}
}

// Bind exports the rolling drift evaluation into reg under prefix (e.g.
// "quality"): one PSI and KL gauge per tracked metric, the windowed
// sample count, the worst PSI, and a 0/1/2 ok/warn/page status level —
// refreshed lazily by a scrape hook each time the registry is exposed, so
// /metrics and the drain manifest's final snapshot carry live drift state
// with no polling goroutine.
func (m *Monitor) Bind(reg *obs.Registry, prefix string) {
	if m == nil || reg == nil {
		return
	}
	psiGauges := make(map[string]*obs.Gauge, len(m.tracked))
	klGauges := make(map[string]*obs.Gauge, len(m.tracked))
	for _, name := range m.tracked {
		psiGauges[name] = reg.Gauge(prefix + ".psi." + name)
		klGauges[name] = reg.Gauge(prefix + ".kl." + name)
	}
	samples := reg.Gauge(prefix + ".samples")
	worst := reg.Gauge(prefix + ".psi_worst")
	level := reg.Gauge(prefix + ".status")
	reg.AddScrapeHook(func() {
		st := m.Status()
		for _, ms := range st.Metrics {
			if g := psiGauges[ms.Name]; g != nil {
				g.Set(ms.PSI)
			}
			if g := klGauges[ms.Name]; g != nil {
				g.Set(ms.KL)
			}
		}
		samples.Set(float64(st.Samples))
		worst.Set(st.WorstPSI)
		level.Set(statusLevel(st.Status))
	})
}
