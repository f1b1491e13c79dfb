package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeSLOClock is a hand-advanced clock for deterministic window tests.
type fakeSLOClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeSLOClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeSLOClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestSLOObjectives(t *testing.T) {
	clock := &fakeSLOClock{now: time.Unix(1000, 0)}
	s := NewSLO(SLOConfig{
		Window:      time.Minute,
		P50TargetMs: 10, P99TargetMs: 50, ErrorBudget: 0.01,
		Clock: clock.Now,
	})

	// Empty window: everything OK, nothing observed.
	if st := s.Status(); !st.OK || st.Total != 0 || len(st.Objectives) != 3 {
		t.Fatalf("empty status: %+v", st)
	}

	// 100 requests: 98 fast (5ms), 2 slow (100ms, over both targets), no
	// errors. p50 objective holds (2% > 10ms vs 50% budget); the p99
	// objective burns 2x its 1% budget.
	for i := 0; i < 98; i++ {
		s.Observe(5*time.Millisecond, false)
	}
	s.Observe(100*time.Millisecond, false)
	s.Observe(100*time.Millisecond, false)

	st := s.Status()
	if st.Total != 100 || st.Errors != 0 {
		t.Fatalf("total %d errors %d, want 100/0", st.Total, st.Errors)
	}
	byName := map[string]Objective{}
	for _, o := range st.Objectives {
		byName[o.Name] = o
	}
	if o := byName["p50_latency"]; !o.OK || o.Observed != 0.02 {
		t.Errorf("p50 objective: %+v", o)
	}
	if o := byName["p99_latency"]; o.OK || o.BurnRate != 2.0 {
		t.Errorf("p99 objective: %+v (want burn 2.0, violated)", o)
	}
	if o := byName["error_rate"]; !o.OK || o.Observed != 0 {
		t.Errorf("error objective: %+v", o)
	}
	if st.OK {
		t.Error("status OK with a violated objective")
	}
	if st.P50Ms <= 0 || st.P50Ms > 10 {
		t.Errorf("p50 estimate %.2fms outside (0, 10]", st.P50Ms)
	}

	// Error burn: 3 errors in a 100+3 window is > 1% budget.
	for i := 0; i < 3; i++ {
		s.Observe(time.Millisecond, true)
	}
	if o := func() Objective {
		for _, o := range s.Status().Objectives {
			if o.Name == "error_rate" {
				return o
			}
		}
		return Objective{}
	}(); o.OK || o.BurnRate <= 1 {
		t.Errorf("error objective after 3 errors: %+v", o)
	}
}

func TestSLOWindowRotation(t *testing.T) {
	clock := &fakeSLOClock{now: time.Unix(2000, 0)}
	s := NewSLO(SLOConfig{Window: 60 * time.Second, ErrorBudget: 0.5, Clock: clock.Now})

	s.Observe(time.Millisecond, true)
	s.Observe(time.Millisecond, true)
	if st := s.Status(); st.Errors != 2 {
		t.Fatalf("errors %d, want 2", st.Errors)
	}

	// Half a window later the errors are still visible...
	clock.Advance(30 * time.Second)
	s.Observe(time.Millisecond, false)
	if st := s.Status(); st.Errors != 2 || st.Total != 3 {
		t.Fatalf("mid-window: %+v", st)
	}

	// ...but a full window later they have aged out.
	clock.Advance(61 * time.Second)
	if st := s.Status(); st.Errors != 0 || st.Total != 0 {
		t.Fatalf("post-window: total %d errors %d, want 0/0", st.Total, st.Errors)
	}
	if !s.Status().OK {
		t.Error("aged-out window not OK")
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe(time.Second, true)
	if st := s.Status(); !st.OK {
		t.Errorf("nil SLO status: %+v", st)
	}
	s.Bind(NewRegistry(), "slo")
}

// TestSLOBind: the scrape hook refreshes the exported gauges on every
// exposition, so /metrics and manifest snapshots see live SLO state.
func TestSLOBind(t *testing.T) {
	clock := &fakeSLOClock{now: time.Unix(3000, 0)}
	s := NewSLO(SLOConfig{P99TargetMs: 1, ErrorBudget: 0.5, Clock: clock.Now})
	reg := NewRegistry()
	s.Bind(reg, "slo")

	for i := 0; i < 10; i++ {
		s.Observe(20*time.Millisecond, false) // all over the 1ms p99 target
	}
	snap := reg.Snapshot()
	if snap["slo.p99_ms"] <= 0 {
		t.Errorf("slo.p99_ms not refreshed: %v", snap)
	}
	if snap["slo.burn_max"] <= 1 {
		t.Errorf("slo.burn_max %.2f, want > 1 (every request over target)", snap["slo.burn_max"])
	}
	if snap["slo.violated"] != 1 {
		t.Errorf("slo.violated %.0f, want 1", snap["slo.violated"])
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "slo_p99_ms") || !strings.Contains(out, "slo_burn_max") {
		t.Errorf("prometheus exposition lacks SLO gauges:\n%s", out)
	}
}

// TestSLOConcurrent hammers Observe/Status from many goroutines; run
// under -race this is the engine's thread-safety gate.
func TestSLOConcurrent(t *testing.T) {
	s := NewSLO(SLOConfig{Window: 50 * time.Millisecond, P99TargetMs: 1, ErrorBudget: 0.1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe(time.Duration(i%7)*time.Millisecond, i%11 == 0)
				if i%50 == 0 {
					s.Status()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Status(); st.Total == 0 {
		t.Error("nothing observed after concurrent hammer")
	}
}
