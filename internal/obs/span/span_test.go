package span

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// drive opens episode→step→phase spans so tests get a realistic tree
// without sleeping: durations are whatever the clock gives, but the
// structural identities (parents, child sums, coordinates) are exact.
func drive(l *Lane, episodes, steps int, phases ...string) {
	for ep := 0; ep < episodes; ep++ {
		er := l.StartEpisode(ep)
		for st := 0; st < steps; st++ {
			sr := l.StartStep(st)
			for _, p := range phases {
				l.Start(p).End()
			}
			sr.End()
		}
		er.End()
	}
}

func TestNestingAndSelfTime(t *testing.T) {
	tr := New(Config{})
	l := tr.Lane("unit")
	er := l.StartEpisode(3)
	sr := l.StartStep(7)
	l.Start("bpdqn_forward").End()
	l.Start("env_physics").End()
	sr.End()
	er.End()

	spans, total := tr.Snapshot()
	if total != 4 || len(spans) != 4 {
		t.Fatalf("recorded %d spans (total %d), want 4", len(spans), total)
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	fw, ph, step, ep := byName["bpdqn_forward"], byName["env_physics"], byName["step"], byName["episode"]
	if fw.Parent != "step" || ph.Parent != "step" || step.Parent != "episode" || ep.Parent != "" {
		t.Errorf("parents: fw=%q ph=%q step=%q ep=%q", fw.Parent, ph.Parent, step.Parent, ep.Parent)
	}
	if step.Child != fw.Dur+ph.Dur {
		t.Errorf("step child time %d != phase durations %d+%d", step.Child, fw.Dur, ph.Dur)
	}
	if ep.Child != step.Dur {
		t.Errorf("episode child time %d != step duration %d", ep.Child, step.Dur)
	}
	if fw.Ep != 3 || fw.Step != 7 || step.Ep != 3 || step.Step != 7 {
		t.Errorf("coordinates: fw ep=%d step=%d, step ep=%d step=%d", fw.Ep, fw.Step, step.Ep, step.Step)
	}
	if ep.Step != -1 {
		t.Errorf("episode span step = %d, want -1", ep.Step)
	}
	// Episode/step coordinates are cleared on End.
	if l.Sampled() {
		t.Error("lane still Sampled after the step ended")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(Config{Capacity: 4})
	l := tr.Lane("u")
	for i := 0; i < 10; i++ {
		l.Start(fmt.Sprintf("s%d", i)).End()
	}
	spans, total := tr.Snapshot()
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", 6+i); s.Name != want {
			t.Errorf("span %d = %q, want %q (oldest-first)", i, s.Name, want)
		}
	}
}

func TestSamplingDeterministicAcrossTracers(t *testing.T) {
	sampled := func() map[int]bool {
		tr := New(Config{Sample: 0.5})
		l := tr.Lane("u")
		er := l.StartEpisode(0)
		kept := map[int]bool{}
		for st := 0; st < 200; st++ {
			sr := l.StartStep(st)
			kept[st] = l.Sampled()
			sr.End()
		}
		er.End()
		return kept
	}
	a, b := sampled(), sampled()
	n := 0
	for st, k := range a {
		if b[st] != k {
			t.Fatalf("step %d sampled=%v in one tracer, %v in the other", st, k, b[st])
		}
		if k {
			n++
		}
	}
	if n < 50 || n > 150 {
		t.Errorf("sampled %d/200 steps at rate 0.5", n)
	}
	if n == 200 {
		t.Error("sampling at 0.5 kept every step")
	}
}

func TestUnsampledStepMutesPhasesAndDecisions(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Sample: 0.5, Decisions: &buf})
	l := tr.Lane("u")
	er := l.StartEpisode(0)
	decided := 0
	for st := 0; st < 100; st++ {
		sr := l.StartStep(st)
		l.Start("phase").End()
		if l.Sampled() {
			decided++
		}
		l.Decision(Decision{Behavior: "KL"})
		sr.End()
	}
	er.End()

	spans, _ := tr.Snapshot()
	steps, phases := 0, 0
	for _, s := range spans {
		switch s.Name {
		case "step":
			steps++
		case "phase":
			phases++
		}
	}
	if steps == 0 || steps == 100 {
		t.Fatalf("sampled %d/100 steps at rate 0.5", steps)
	}
	if phases != steps {
		t.Errorf("recorded %d phase spans for %d sampled steps — muting leaked", phases, steps)
	}
	ds, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != decided || len(ds) != steps {
		t.Errorf("wrote %d decisions, want %d (= sampled steps %d)", len(ds), decided, steps)
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Decisions: &buf})
	l := tr.Lane("train-03")
	er := l.StartEpisode(5)
	sr := l.StartStep(9)
	l.Decision(Decision{
		Behavior: "LLC", Accel: -1.25,
		Reward: 0.5, Safety: 0.1, Eff: 0.2, Comfort: 0.3, Impact: -0.1, TTC: 4.2,
		Collision: true,
		Attention: [][]float64{{0.75, 0.25}},
	})
	sr.End()
	er.End()

	ds, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("%d decisions, want 1", len(ds))
	}
	d := ds[0]
	if d.Lane != 1 || d.Unit != "train-03" || d.Ep != 5 || d.Step != 9 {
		t.Errorf("coordinates = %+v", d)
	}
	if d.Behavior != "LLC" || d.Accel != -1.25 || d.TTC != 4.2 {
		t.Errorf("payload = %+v", d)
	}
	if !d.Collision || d.Finished {
		t.Errorf("episode outcome = collision %v finished %v, want true false", d.Collision, d.Finished)
	}
	if len(d.Attention) != 1 || d.Attention[0][0] != 0.75 {
		t.Errorf("attention = %v", d.Attention)
	}
	if _, err := ReadDecisions(strings.NewReader(`{"step":1}` + "\n{not json")); err == nil {
		t.Error("garbage decision stream parsed without error")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := New(Config{})
	drive(tr.Lane("train-00"), 2, 3, "bpdqn_forward", "env_physics")

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", a.Dropped)
	}
	if name := a.LaneNames[1]; name != "train-00 (lane 1)" {
		t.Errorf("lane 1 name = %q", name)
	}
	// 2 episodes + 6 steps + 12 phases.
	if len(a.Events) != 20 {
		t.Fatalf("%d events, want 20", len(a.Events))
	}
	for _, e := range a.Events {
		if e.Name == "step" && (e.Ep < 0 || e.Step < 0) {
			t.Errorf("step event lost coordinates: %+v", e)
		}
		if e.Name == "bpdqn_forward" && e.Parent != "step" {
			t.Errorf("phase parent = %q, want step", e.Parent)
		}
	}
	// Self time survives the round trip: phases are leaves, so self == dur.
	for _, e := range a.Events {
		if e.Parent == "step" && math.Abs(e.Self-e.Dur) > 1e-9 {
			t.Errorf("leaf %s self %g != dur %g", e.Name, e.Self, e.Dur)
		}
	}
}

func TestCoverageIdentity(t *testing.T) {
	tr := New(Config{})
	drive(tr.Lane("u"), 3, 20, "sensor_scan", "bpdqn_forward", "env_physics", "reward_compute")

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, phases, self, relErr := a.Coverage()
	if steps <= 0 {
		t.Fatal("no step time recorded")
	}
	if relErr > 0.01 {
		t.Errorf("coverage identity broken: steps %g, phases %g + self %g (err %.4f%%)",
			steps, phases, self, relErr*100)
	}
	// Phases() must agree with the raw events on the step total.
	for _, p := range a.Phases() {
		if p.Name == "step" && math.Abs(p.Total-steps) > 1e-9 {
			t.Errorf("Phases step total %g != Coverage steps %g", p.Total, steps)
		}
	}
}

func TestEpisodes(t *testing.T) {
	tr := New(Config{})
	drive(tr.Lane("eval-000"), 2, 4, "env_physics")
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eps := a.Episodes()
	if len(eps) != 2 {
		t.Fatalf("%d episode rows, want 2", len(eps))
	}
	for i, e := range eps {
		if e.Ep != i || e.Steps != 4 || e.TopPhase != "env_physics" {
			t.Errorf("row %d = %+v", i, e)
		}
		if e.Dur < e.StepDur {
			t.Errorf("row %d: episode dur %g < step dur %g", i, e.Dur, e.StepDur)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	l := tr.Lane("void")
	if l != nil {
		t.Fatal("nil tracer returned a live lane")
	}
	// None of these may panic or record anything.
	l.Start("x").End()
	l.StartEpisode(1).End()
	l.StartStep(2).End()
	l.Decision(Decision{Behavior: "KL"})
	if l.Sampled() || l.Name() != "" {
		t.Error("nil lane claims state")
	}
	if s, total := tr.Snapshot(); s != nil || total != 0 {
		t.Error("nil tracer snapshot non-empty")
	}
	tr.OnFlush(func() error { return errors.New("never") })
	if err := tr.Flush(); err != nil {
		t.Errorf("nil tracer flush: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("nil tracer chrome output unparseable: %v", err)
	}
	if len(a.Events) != 0 {
		t.Errorf("nil tracer exported %d events", len(a.Events))
	}
	// Unbalanced End on a zero Region is a no-op too.
	Region{}.End()
}

func TestFlushRunsFinalizersOnce(t *testing.T) {
	tr := New(Config{})
	n := 0
	wantErr := errors.New("sink failed")
	tr.OnFlush(func() error { n++; return wantErr })
	tr.OnFlush(func() error { n++; return nil })
	if err := tr.Flush(); !errors.Is(err, wantErr) {
		t.Errorf("flush error = %v, want first finalizer's", err)
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("second flush = %v, want nil (finalizers consumed)", err)
	}
	if n != 2 {
		t.Errorf("ran %d finalizers, want 2", n)
	}
}

func TestSummarizeDecisions(t *testing.T) {
	ds := []Decision{
		{Behavior: "KL", Reward: 1, Safety: 0.5, TTC: 3, Attention: [][]float64{{0.5, 0.5}}},
		{Behavior: "KL", Reward: 3, Safety: 1.5, TTC: 0, Collision: true},
		{Behavior: "LLC", Reward: 2, Eff: 3, TTC: 6, Finished: true},
	}
	s := SummarizeDecisions(ds)
	if s.N != 3 || s.Behaviors["KL"] != 2 || s.Behaviors["LLC"] != 1 {
		t.Errorf("mix = %+v", s)
	}
	if s.MeanReward != 2 || s.MeanSafety != 2.0/3 || s.MeanEff != 1 {
		t.Errorf("means = %+v", s)
	}
	if s.MinTTC != 3 {
		t.Errorf("MinTTC = %g, want 3 (zero TTCs are invalid, not minimal)", s.MinTTC)
	}
	if s.Collisions != 1 || s.Finished != 1 {
		t.Errorf("outcomes = %d collisions %d finished, want 1 1", s.Collisions, s.Finished)
	}
	var report strings.Builder
	s.Report(&report)
	if out := report.String(); !strings.Contains(out, "KL 66.7%  LLC 33.3%") ||
		!strings.Contains(out, "outcomes: 1 collisions, 1 reached destination") {
		t.Errorf("report:\n%s", out)
	}
	if s.AttnRows != 1 || math.Abs(s.MeanAttnEntropy-math.Log(2)) > 1e-12 {
		t.Errorf("entropy = %g over %d rows, want ln2 over 1", s.MeanAttnEntropy, s.AttnRows)
	}
	empty := SummarizeDecisions(nil)
	if empty.N != 0 || empty.MeanAttnEntropy != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestRowEntropy(t *testing.T) {
	if _, ok := rowEntropy(nil); ok {
		t.Error("empty row has entropy")
	}
	if _, ok := rowEntropy([]float64{0, 0}); ok {
		t.Error("zero row has entropy")
	}
	if h, ok := rowEntropy([]float64{1}); !ok || h != 0 {
		t.Errorf("point mass entropy = %g, %v", h, ok)
	}
	// Unnormalized rows are renormalized.
	h, ok := rowEntropy([]float64{2, 2, 2, 2})
	if !ok || math.Abs(h-math.Log(4)) > 1e-12 {
		t.Errorf("uniform entropy = %g, want ln4", h)
	}
}
