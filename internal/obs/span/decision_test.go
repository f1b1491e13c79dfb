package span_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"head/internal/head"
	"head/internal/obs/span"
	"head/internal/policy"
)

// driveEpisode runs one short IDM episode on a traced lane, as headviz and
// eval do, and returns the decision stream it wrote together with the
// maneuvers and outcomes the env reported for each step.
func driveEpisode(t *testing.T, seed int64) ([]byte, []head.StepOutcome, []string, []float64) {
	t.Helper()
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 60
	env := head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
	ctrl := policy.NewIDMLC(cfg.Traffic.World)

	var buf bytes.Buffer
	lane := span.New(span.Config{Decisions: &buf}).Lane("episode")
	env.SetTrace(lane)
	er := lane.StartEpisode(0)
	env.Reset()
	ctrl.Reset()
	var (
		outs      []head.StepOutcome
		behaviors []string
		accels    []float64
	)
	for step := 0; !env.Done(); step++ {
		sr := lane.StartStep(step)
		m := ctrl.Decide(env)
		outs = append(outs, env.StepManeuver(m))
		behaviors = append(behaviors, m.B.String())
		accels = append(accels, m.A)
		sr.End()
	}
	er.End()
	if len(outs) == 0 || len(outs) != env.Steps() {
		t.Fatalf("drove %d steps, env counted %d", len(outs), env.Steps())
	}
	return buf.Bytes(), outs, behaviors, accels
}

func TestDecisionStreamRoundTrip(t *testing.T) {
	data, outs, behaviors, accels := driveEpisode(t, 3)
	ds, err := span.ReadDecisions(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(outs) {
		t.Fatalf("stream holds %d decisions for %d steps", len(ds), len(outs))
	}
	for i, d := range ds {
		if d.Ep != 0 || int(d.Step) != i || d.Unit != "episode" {
			t.Fatalf("decision %d coordinates = ep %d step %d unit %q", i, d.Ep, d.Step, d.Unit)
		}
		o := outs[i]
		if d.Behavior != behaviors[i] || d.Accel != accels[i] || d.Reward != o.Reward || d.TTC != o.TTC {
			t.Fatalf("decision %d = %+v, env reported maneuver %s/%g outcome %+v", i, d, behaviors[i], accels[i], o)
		}
		if d.Collision != o.Collision || d.Finished != o.Finished {
			t.Fatalf("decision %d outcome = collision %v finished %v, env reported %v %v",
				i, d.Collision, d.Finished, o.Collision, o.Finished)
		}
	}

	// Re-encoding what was read and reading it again is lossless.
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	back, err := span.ReadDecisions(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ds) {
		t.Error("decision stream changed across a second round trip")
	}
}

func TestDecisionOutcomeFlags(t *testing.T) {
	// The episode outcome must survive the round trip, and an unset flag
	// must stay off the wire (omitempty) so ordinary steps stay compact.
	for _, c := range []struct{ collision, finished bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		var buf bytes.Buffer
		l := span.New(span.Config{Decisions: &buf}).Lane("flags")
		sr := l.StartStep(1)
		l.Decision(span.Decision{Behavior: "KL", Collision: c.collision, Finished: c.finished})
		sr.End()
		line := buf.String()

		ds, err := span.ReadDecisions(strings.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 1 {
			t.Fatalf("%d decisions, want 1", len(ds))
		}
		if ds[0].Collision != c.collision || ds[0].Finished != c.finished {
			t.Errorf("flags lost: wrote collision=%v finished=%v, read %v/%v",
				c.collision, c.finished, ds[0].Collision, ds[0].Finished)
		}
		if got := strings.Contains(line, `"collision"`); got != c.collision {
			t.Errorf("collision=%v but key present=%v in %s", c.collision, got, line)
		}
		if got := strings.Contains(line, `"finished"`); got != c.finished {
			t.Errorf("finished=%v but key present=%v in %s", c.finished, got, line)
		}
	}
}

func TestReadDecisionsGarbage(t *testing.T) {
	if _, err := span.ReadDecisions(strings.NewReader("{broken")); err == nil {
		t.Error("expected decode error")
	}
	// The records before the bad line are returned alongside the error.
	ds, err := span.ReadDecisions(strings.NewReader(`{"step":1,"behavior":"KL"}` + "\n" + `{"step":"two"}`))
	if err == nil {
		t.Error("mistyped field parsed without error")
	}
	if len(ds) != 1 || ds[0].Behavior != "KL" {
		t.Errorf("records before the error = %+v, want the one valid line", ds)
	}
	ds, err = span.ReadDecisions(strings.NewReader(""))
	if err != nil || len(ds) != 0 {
		t.Errorf("empty stream = %d decisions, err %v; want none, nil", len(ds), err)
	}
}

func TestSummarizeEpisode(t *testing.T) {
	data, outs, _, _ := driveEpisode(t, 4)
	ds, err := span.ReadDecisions(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := span.SummarizeDecisions(ds)
	if s.N != len(outs) {
		t.Errorf("N = %d for %d steps", s.N, len(outs))
	}
	mix := 0
	for _, n := range s.Behaviors {
		mix += n
	}
	if mix != s.N {
		t.Errorf("behaviour mix counts %d of %d steps", mix, s.N)
	}
	var reward float64
	collisions, finished := 0, 0
	for _, o := range outs {
		reward += o.Reward
		if o.Collision {
			collisions++
		}
		if o.Finished {
			finished++
		}
	}
	if want := reward / float64(len(outs)); math.Abs(s.MeanReward-want) > 1e-9 {
		t.Errorf("MeanReward = %g, want %g", s.MeanReward, want)
	}
	if s.Collisions != collisions || s.Finished != finished || collisions+finished > 1 {
		t.Errorf("outcomes = %d collisions %d finished, env reported %d %d",
			s.Collisions, s.Finished, collisions, finished)
	}

	// A replay of the written stream reports exactly what the live run did.
	var live, replay strings.Builder
	s.Report(&live)
	back, err := span.ReadDecisions(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	span.SummarizeDecisions(back).Report(&replay)
	if live.String() != replay.String() {
		t.Errorf("replay summary differs:\nlive:\n%s\nreplay:\n%s", live.String(), replay.String())
	}
}

func TestSummarizeDecisionsInvalidTTC(t *testing.T) {
	// TTC 0 means "no valid TTC this step"; a stream with no valid TTC at
	// all must report MinTTC 0, not treat 0 as an observed minimum.
	ds := []span.Decision{{Behavior: "KL"}, {Behavior: "KL"}, {Behavior: "KL"}}
	s := span.SummarizeDecisions(ds)
	if s.MinTTC != 0 {
		t.Errorf("MinTTC = %g, want 0 for all-invalid TTC", s.MinTTC)
	}
	var report strings.Builder
	s.Report(&report)
	if strings.Contains(report.String(), "min TTC") {
		t.Errorf("report shows a min TTC with none valid:\n%s", report.String())
	}
	// A single valid observation dominates regardless of position.
	ds[1].TTC = 4.2
	if got := span.SummarizeDecisions(ds).MinTTC; got != 4.2 {
		t.Errorf("MinTTC = %g, want 4.2", got)
	}
}
