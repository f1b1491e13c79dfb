package main

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"head/internal/nn"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than %d beyond", c.n, q, minBeyond)
		}
	}
	// A latency window must be large enough to report its p99.
	if q, _ := tailQuantile(latencyMinSamples); q < 0.99 {
		t.Errorf("a %d-request latency window only supports p%g", latencyMinSamples, 100*q)
	}
}

func TestWindowQuantilesSkipShortWindows(t *testing.T) {
	var windows []int
	var vals []float64
	// Windows 2, 0 and 1 hold 4 samples each with maximum 10·w+4; window 7
	// is short and must be skipped.
	for _, w := range []int{2, 0, 1} {
		for i := 1; i <= 4; i++ {
			windows = append(windows, w)
			vals = append(vals, float64(10*w+i))
		}
	}
	windows = append(windows, 7)
	vals = append(vals, 1000)
	if got, want := windowQuantiles(windows, vals, 1, 4), []float64{4, 14, 24}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowQuantiles = %v, want %v in window order", got, want)
	}
	if got := windowQuantiles(windows, vals, 1, 5); len(got) != 0 {
		t.Errorf("no window holds 5 samples, got %v", got)
	}
	// Every window counts towards the reported median, the slow one too.
	if m := median([]float64{24, 4, 1000, 14}); m != 14 {
		t.Errorf("median = %v, want 14 (nearest rank)", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of nothing = %v, want NaN", m)
	}
}

func TestWindowRates(t *testing.T) {
	start := time.Unix(0, 0)
	var at []time.Time
	// 2, 4 and 6 events in three 500 ms windows, plus some past the end.
	for w, n := range []int{2, 4, 6, 9} {
		for i := 0; i < n; i++ {
			at = append(at, start.Add(time.Duration(w)*500*time.Millisecond+time.Duration(i+1)*time.Millisecond))
		}
	}
	got := windowRates(at, start, 500*time.Millisecond, 3)
	if want := []float64{4, 8, 12}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	if windowRates(at, start, time.Second, 0) != nil {
		t.Error("no windows, no rates")
	}
}

func TestScheduleKeepsSharesAndMinimum(t *testing.T) {
	var order []int
	mk := func(i int, share float64, d time.Duration) *phase {
		return &phase{share: share, step: func() error {
			order = append(order, i)
			time.Sleep(d)
			return nil
		}}
	}
	ps := []*phase{mk(0, 0.5, 4*time.Millisecond), mk(1, 0.25, 2*time.Millisecond), mk(2, 0.25, time.Millisecond)}
	if err := schedule(ps, 60*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if p.slices < 3 {
			t.Errorf("phase %d ran %d slices, want at least 3", i, p.slices)
		}
	}
	// Time follows the shares: the half-share phase got roughly as much as
	// the two quarter-share phases together.
	if r := ps[0].used.Seconds() / (ps[1].used + ps[2].used).Seconds(); r < 0.6 || r > 1.6 {
		t.Errorf("half-share phase used %v against %v and %v", ps[0].used, ps[1].used, ps[2].used)
	}
	if order[0] != 0 {
		t.Errorf("first slice went to phase %d; all tie at zero, so the first phase goes first", order[0])
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	due := tickDue(start, 120*time.Millisecond, tickPeriod, 3)
	if want := start.Add(1620 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("tickDue = %v, want %v", due, want)
	}
	ms := time.Millisecond
	for _, c := range []struct {
		name           string
		sent, prevDone time.Time
		want           time.Duration
	}{
		{"on time", due, due.Add(-time.Second), 0},
		{"generator late", due.Add(7 * ms), due.Add(-time.Second), 7 * ms},
		{"waited on a slow previous reply", due.Add(40 * ms), due.Add(38 * ms), 2 * ms},
		{"sent early", due.Add(-ms), time.Time{}, 0},
	} {
		if got := lateness(c.sent, due, c.prevDone); got != c.want {
			t.Errorf("%s: lateness = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	ok, conflict, unavailable := http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable
	for _, c := range []struct {
		statuses []int
		timedOut bool
		want     bool
	}{
		{[]int{ok}, false, true},
		{[]int{conflict, ok}, false, true},
		{[]int{ok}, true, false},
		{[]int{conflict, conflict}, false, false},
		{[]int{conflict, conflict, ok}, false, false},
		{[]int{unavailable}, false, false},
		{[]int{ok, ok}, false, false},
		{nil, false, false},
	} {
		if got := exchangeOK(c.statuses, c.timedOut); got != c.want {
			t.Errorf("exchangeOK(%v, %v) = %v, want %v", c.statuses, c.timedOut, got, c.want)
		}
	}
	var tl tally
	tl.add(true, 3)
	tl.add(false, 1)
	tl.add(true, 5)
	tl.add(true, 4)
	if tl.attempted != 4 || tl.failed != 1 || tl.errorRate() != 0.25 {
		t.Errorf("tally = %d attempted, %d failed, rate %v", tl.attempted, tl.failed, tl.errorRate())
	}
	// The failure misses every latency limit: it is the slowest sample.
	if p := percentile(sortedCopy(tl.latMs), 1); !math.IsInf(p, 1) {
		t.Errorf("max latency = %v, want +Inf for the failed request", p)
	}
	if got := (&tally{}).errorRate(); got != 0 {
		t.Errorf("empty tally error rate = %v", got)
	}
}

func TestDigests(t *testing.T) {
	a, err := digestJSON([]float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digestJSON([]float64{0.1, 0.2})
	c, _ := digestJSON([]float64{0.1, math.Nextafter(0.2, 1)})
	if a != b || a == c || len(a) != 16 {
		t.Errorf("digestJSON: equal %s %s, one-ulp change %s", a, b, c)
	}
	p := nn.NewParam("w", 1, 2)
	p.W.Data[0] = 1
	d0 := digestParams(paramModule{p})
	p.W.Data[1] = math.Copysign(0, -1)
	if d1 := digestParams(paramModule{p}); d1 == d0 {
		t.Error("digestParams must see the sign of zero (bit patterns, not values)")
	}
}

// paramModule lets a bare *nn.Param stand in for a module in TestDigests.
type paramModule struct{ p *nn.Param }

func (m paramModule) Params() []*nn.Param { return []*nn.Param{m.p} }

func TestResultRoundTrip(t *testing.T) {
	r := result{Correct: true, Attempted: 12, Failed: 1, Metrics: map[string]metric{
		"latency_ms": {Value: 1.2034567891, Unit: "ms"},
		"setup_s":    {Value: 0.8127, Unit: "s"},
	}}
	line, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want correct/attempted/failed/metrics", len(keys))
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("round trip: %+v != %+v", back, r)
	}
	r.Metrics["p99_ms"] = metric{Value: math.Inf(1), Unit: "ms"}
	if _, err := encodeResult(r); err == nil {
		t.Error("a non-finite metric must be refused")
	}
}
