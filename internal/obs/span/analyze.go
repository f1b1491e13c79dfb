package span

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Analysis is a parsed Chrome trace produced by WriteChrome, the input to
// the headtrace attribution queries.
type Analysis struct {
	Events    []Event          // complete ("X") spans in file order
	LaneNames map[int64]string // tid → display name from thread_name metadata
	Dropped   int64            // spans lost to ring wrap-around before export
}

// Event is one complete span as exported to Chrome trace JSON. All times
// are microseconds.
type Event struct {
	Name   string
	Parent string
	Req    string // request id for request-scoped spans ("" elsewhere)
	Tid    int64
	Ts     float64
	Dur    float64
	Self   float64 // duration minus direct children (from args.self_us)
	Ep     int     // -1 when absent
	Step   int     // -1 when absent
}

// ReadChrome parses Chrome trace-event JSON written by WriteChrome. It
// tolerates traces from other producers: events without the span args
// simply get zero self time and -1 coordinates.
func ReadChrome(r io.Reader) (*Analysis, error) {
	var ct struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Tid  int64           `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		Dropped int64 `json:"droppedSpans"`
	}
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("span: chrome parse: %w", err)
	}
	a := &Analysis{LaneNames: map[int64]string{}, Dropped: ct.Dropped}
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				if json.Unmarshal(ev.Args, &args) == nil {
					a.LaneNames[ev.Tid] = args.Name
				}
			}
		case "X":
			e := Event{Name: ev.Name, Tid: ev.Tid, Ts: ev.Ts, Dur: ev.Dur, Ep: -1, Step: -1}
			var args struct {
				SelfUs *float64 `json:"self_us"`
				Parent string   `json:"parent"`
				Req    string   `json:"req"`
				Ep     *int     `json:"ep"`
				Step   *int     `json:"step"`
			}
			if len(ev.Args) > 0 && json.Unmarshal(ev.Args, &args) == nil {
				e.Parent = args.Parent
				e.Req = args.Req
				if args.SelfUs != nil {
					e.Self = *args.SelfUs
				}
				if args.Ep != nil {
					e.Ep = *args.Ep
				}
				if args.Step != nil {
					e.Step = *args.Step
				}
			}
			a.Events = append(a.Events, e)
		}
	}
	return a, nil
}

// PhaseStat aggregates every span sharing one name. Times are
// microseconds.
type PhaseStat struct {
	Name  string
	Count int
	Total float64 // Σ duration
	Self  float64 // Σ self time
	Mean  float64
	Max   float64
}

// Phases returns per-name latency attribution, sorted by total duration
// descending.
func (a *Analysis) Phases() []PhaseStat {
	byName := map[string]*PhaseStat{}
	for _, e := range a.Events {
		ps := byName[e.Name]
		if ps == nil {
			ps = &PhaseStat{Name: e.Name}
			byName[e.Name] = ps
		}
		ps.Count++
		ps.Total += e.Dur
		ps.Self += e.Self
		if e.Dur > ps.Max {
			ps.Max = e.Dur
		}
	}
	out := make([]PhaseStat, 0, len(byName))
	for _, ps := range byName {
		ps.Mean = ps.Total / float64(ps.Count)
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Coverage checks the tracer's accounting identity: the durations of the
// phases directly under the step spans plus the steps' own self time must
// reproduce the step spans' total duration. It returns the three sums
// (µs) and the relative error |phases+self−steps| / steps (0 when no
// steps were traced).
func (a *Analysis) Coverage() (steps, phases, self, relErr float64) {
	return a.CoverageOf("step")
}

// RequestCoverage is the serving-side accounting identity: the phases
// directly under the request spans (queue, batch_seal, replica_infer,
// reply, network) plus the requests' own self time must reproduce the
// request spans' end-to-end totals.
func (a *Analysis) RequestCoverage() (requests, phases, self, relErr float64) {
	return a.CoverageOf("request")
}

// CoverageOf evaluates the accounting identity for one root span name:
// Σ dur(children of root) + Σ self(root) vs Σ dur(root). It returns the
// three sums (µs) and the relative error (0 when no root spans exist).
func (a *Analysis) CoverageOf(root string) (total, phases, self, relErr float64) {
	for _, e := range a.Events {
		switch {
		case e.Name == root:
			total += e.Dur
			self += e.Self
		case e.Parent == root:
			phases += e.Dur
		}
	}
	if total > 0 {
		relErr = math.Abs(phases+self-total) / total
	}
	return total, phases, self, relErr
}

// RequestStat is one request-scoped span tree flattened: the request's
// id, lane, end-to-end duration, and per-phase durations, all µs.
type RequestStat struct {
	Req   string
	Tid   int64
	Ts    float64
	Dur   float64
	Phase map[string]float64
}

// Requests groups the request-scoped spans by request id, in trace
// order: one RequestStat per "request" span, its Phase map folding the
// spans recorded under it (matched by request id, so the grouping
// survives lane sharing). Traces without request telemetry return nil.
func (a *Analysis) Requests() []RequestStat {
	idx := map[string]int{}
	var out []RequestStat
	for _, e := range a.Events {
		if e.Req == "" {
			continue
		}
		if e.Name == "request" {
			idx[e.Req] = len(out)
			out = append(out, RequestStat{
				Req: e.Req, Tid: e.Tid, Ts: e.Ts, Dur: e.Dur,
				Phase: map[string]float64{},
			})
		}
	}
	for _, e := range a.Events {
		if e.Req == "" || e.Name == "request" {
			continue
		}
		if i, ok := idx[e.Req]; ok {
			out[i].Phase[e.Name] += e.Dur
		}
	}
	return out
}

// EpisodeStat is the per-episode critical-path summary: where one
// episode's time went and which phase dominated it.
type EpisodeStat struct {
	Tid      int64
	Lane     string
	Ep       int
	Dur      float64 // episode span duration, µs
	Steps    int     // traced step spans
	StepDur  float64 // Σ step durations, µs
	TopPhase string  // phase with the largest total inside this episode
	TopDur   float64 // that phase's total, µs
	MaxStep  float64 // slowest single step, µs
}

// Episodes returns one row per traced episode span, ordered by lane then
// episode index.
func (a *Analysis) Episodes() []EpisodeStat {
	type key struct {
		tid int64
		ep  int
	}
	stats := map[key]*EpisodeStat{}
	phase := map[key]map[string]float64{}
	get := func(k key) *EpisodeStat {
		es := stats[k]
		if es == nil {
			es = &EpisodeStat{Tid: k.tid, Lane: a.LaneNames[k.tid], Ep: k.ep}
			stats[k] = es
			phase[k] = map[string]float64{}
		}
		return es
	}
	for _, e := range a.Events {
		if e.Ep < 0 {
			continue
		}
		k := key{e.Tid, e.Ep}
		es := get(k)
		switch {
		case e.Name == "episode":
			es.Dur = e.Dur
		case e.Name == "step":
			es.Steps++
			es.StepDur += e.Dur
			if e.Dur > es.MaxStep {
				es.MaxStep = e.Dur
			}
		case e.Parent == "step":
			phase[k][e.Name] += e.Dur
		}
	}
	out := make([]EpisodeStat, 0, len(stats))
	for k, es := range stats {
		for name, dur := range phase[k] {
			if dur > es.TopDur || (dur == es.TopDur && name < es.TopPhase) {
				es.TopPhase, es.TopDur = name, dur
			}
		}
		out = append(out, *es)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Ep < out[j].Ep
	})
	return out
}

// DecisionSummary aggregates a decision-record stream: the maneuver mix,
// the mean contribution of each reward term, the worst time-to-collision,
// the mean Shannon entropy of the LST-GAT attention rows (low entropy =
// the model focused on few neighbors; high = attention spread evenly),
// and the episode outcomes the stream records.
type DecisionSummary struct {
	N          int
	Behaviors  map[string]int
	MeanReward float64
	MeanSafety float64
	MeanEff    float64
	MeanComf   float64
	MeanImpact float64
	MinTTC     float64 // 0 when no record carried a valid TTC
	// MeanAttnEntropy averages the per-row normalized attention entropy
	// over AttnRows rows (records without attention are skipped).
	MeanAttnEntropy float64
	AttnRows        int
	// Collisions and Finished count the records that ended an episode
	// with a crash or at the destination.
	Collisions int
	Finished   int
}

// SummarizeDecisions aggregates decision records.
func SummarizeDecisions(ds []Decision) DecisionSummary {
	s := DecisionSummary{Behaviors: map[string]int{}}
	entSum := 0.0
	for _, d := range ds {
		s.N++
		s.Behaviors[d.Behavior]++
		s.MeanReward += d.Reward
		s.MeanSafety += d.Safety
		s.MeanEff += d.Eff
		s.MeanComf += d.Comfort
		s.MeanImpact += d.Impact
		if d.TTC > 0 && (s.MinTTC == 0 || d.TTC < s.MinTTC) {
			s.MinTTC = d.TTC
		}
		if d.Collision {
			s.Collisions++
		}
		if d.Finished {
			s.Finished++
		}
		for _, row := range d.Attention {
			if e, ok := rowEntropy(row); ok {
				entSum += e
				s.AttnRows++
			}
		}
	}
	if s.N > 0 {
		n := float64(s.N)
		s.MeanReward /= n
		s.MeanSafety /= n
		s.MeanEff /= n
		s.MeanComf /= n
		s.MeanImpact /= n
	}
	if s.AttnRows > 0 {
		s.MeanAttnEntropy = entSum / float64(s.AttnRows)
	}
	return s
}

// Report writes the summary as indented text: the maneuver mix, the
// reward decomposition, the worst TTC, the attention entropy and the
// episode outcomes.
func (s DecisionSummary) Report(w io.Writer) {
	fmt.Fprintf(w, "Decision summary (%d records)\n", s.N)
	if s.N == 0 {
		return
	}
	fmt.Fprint(w, "  maneuver mix: ")
	names := make([]string, 0, len(s.Behaviors))
	for b := range s.Behaviors {
		names = append(names, b)
	}
	sort.Strings(names)
	for i, b := range names {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%s %.1f%%", b, 100*float64(s.Behaviors[b])/float64(s.N))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  reward %.4f = safety %.4f + efficiency %.4f + comfort %.4f + impact %.4f (per-term means)\n",
		s.MeanReward, s.MeanSafety, s.MeanEff, s.MeanComf, s.MeanImpact)
	if s.MinTTC > 0 {
		fmt.Fprintf(w, "  min TTC %.2fs\n", s.MinTTC)
	}
	if s.AttnRows > 0 {
		fmt.Fprintf(w, "  attention entropy %.3f nats over %d rows\n", s.MeanAttnEntropy, s.AttnRows)
	}
	fmt.Fprintf(w, "  outcomes: %d collisions, %d reached destination\n", s.Collisions, s.Finished)
}

// rowEntropy is the Shannon entropy (nats) of one attention row after
// renormalization; ok is false for empty or non-positive rows.
func rowEntropy(row []float64) (float64, bool) {
	sum := 0.0
	for _, p := range row {
		if p > 0 {
			sum += p
		}
	}
	if sum <= 0 {
		return 0, false
	}
	h := 0.0
	for _, p := range row {
		if p > 0 {
			q := p / sum
			h -= q * math.Log(q)
		}
	}
	return h, true
}
