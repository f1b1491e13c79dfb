// Command headtrace analyzes a flight-recorder directory written by the
// -trace-out flag of the experiment CLIs: latency attribution per phase,
// per-episode critical paths, a coverage check of the tracer's self-time
// accounting, and a summary of the per-step decision records. Traces with
// request telemetry (headserve's /debug/trace dump, headload's joined
// client+server trace) additionally get per-request latency attribution:
// decode / queue / batch_seal / replica_infer / reply / encode (/ network)
// percentiles and the slowest requests.
//
// Usage:
//
//	headtrace [-check] [-top N] dir                    # dir holding trace.json + decisions.jsonl
//	headtrace [-check] -trace t.json [-decisions d.jsonl]
//
// With -check the exit status is non-zero when an accounting identity
// fails by more than 1%: phase durations plus self time must reproduce
// the step totals (training traces) and the request totals (serving
// traces) — the identities the tracer guarantees.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"head/internal/obs/span"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("headtrace: ")
	var (
		tracePath = flag.String("trace", "", "Chrome trace-event JSON file (overrides the positional dir)")
		decPath   = flag.String("decisions", "", "decision-record JSONL file (overrides the positional dir)")
		check     = flag.Bool("check", false, "exit non-zero if phase+self time misses the step totals by more than 1%")
		top       = flag.Int("top", 0, "show only the N slowest phases and episodes (0 = all)")
	)
	flag.Parse()
	if dir := flag.Arg(0); dir != "" {
		if *tracePath == "" {
			*tracePath = filepath.Join(dir, "trace.json")
		}
		if *decPath == "" {
			if p := filepath.Join(dir, "decisions.jsonl"); exists(p) {
				*decPath = p
			}
		}
	}
	if *tracePath == "" {
		log.Fatal("pass a trace directory or -trace file.json (see -h)")
	}

	a, err := readTrace(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if a.Dropped > 0 {
		fmt.Printf("warning: %d spans dropped to ring wrap-around; totals undercount\n\n", a.Dropped)
	}

	printPhases(a, *top)
	ok := printCoverage(a)
	ok = printRequests(a, *top) && ok
	printEpisodes(a, *top)

	if *decPath != "" {
		ds, err := readDecisions(*decPath)
		if err != nil {
			log.Fatal(err)
		}
		span.SummarizeDecisions(ds).Report(os.Stdout)
	}
	if *check && !ok {
		os.Exit(1)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func readTrace(path string) (*span.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return span.ReadChrome(f)
}

func readDecisions(path string) ([]span.Decision, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return span.ReadDecisions(f)
}

func printPhases(a *span.Analysis, top int) {
	phases := a.Phases()
	if top > 0 && len(phases) > top {
		phases = phases[:top]
	}
	fmt.Println("Phase latency attribution")
	fmt.Printf("  %-18s %8s %12s %12s %12s %12s\n", "phase", "count", "total", "self", "mean", "max")
	for _, p := range phases {
		fmt.Printf("  %-18s %8d %12s %12s %12s %12s\n",
			p.Name, p.Count, us(p.Total), us(p.Self), us(p.Mean), us(p.Max))
	}
	fmt.Println()
}

// printCoverage reports the accounting identity and returns whether it
// holds within 1%.
func printCoverage(a *span.Analysis) bool {
	steps, phases, self, relErr := a.Coverage()
	fmt.Println("Coverage (phases under step + step self vs step totals)")
	fmt.Printf("  steps %s  phases %s  step-self %s  error %.3f%%\n\n",
		us(steps), us(phases), us(self), relErr*100)
	if steps == 0 {
		return true
	}
	return relErr <= 0.01
}

// printRequests reports the serving-side view of a trace with request
// telemetry: the request accounting identity, per-phase percentiles over
// the request population, and the slowest individual requests. Returns
// whether the identity holds within 1% (true when the trace has no
// request spans).
func printRequests(a *span.Analysis, top int) bool {
	reqs := a.Requests()
	if len(reqs) == 0 {
		return true
	}
	total, phases, self, relErr := a.RequestCoverage()
	fmt.Printf("Requests (%d traced)\n", len(reqs))
	fmt.Printf("  accounting: requests %s  phases %s  self %s  error %.3f%%\n",
		us(total), us(phases), us(self), relErr*100)

	names := []string{"decode", "queue", "batch_seal", "replica_infer", "reply", "encode", "network"}
	byPhase := map[string][]float64{}
	var durs []float64
	for _, r := range reqs {
		durs = append(durs, r.Dur)
		for _, n := range names {
			if d, ok := r.Phase[n]; ok {
				byPhase[n] = append(byPhase[n], d)
			}
		}
	}
	sort.Float64s(durs)
	fmt.Printf("  %-14s %8s %12s %12s %12s\n", "phase", "count", "p50", "p99", "max")
	fmt.Printf("  %-14s %8d %12s %12s %12s\n", "e2e",
		len(durs), us(quantile(durs, 0.50)), us(quantile(durs, 0.99)), us(durs[len(durs)-1]))
	for _, n := range names {
		ds := byPhase[n]
		if len(ds) == 0 {
			continue
		}
		sort.Float64s(ds)
		fmt.Printf("  %-14s %8d %12s %12s %12s\n", n,
			len(ds), us(quantile(ds, 0.50)), us(quantile(ds, 0.99)), us(ds[len(ds)-1]))
	}

	slowest := append([]span.RequestStat(nil), reqs...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].Dur > slowest[j].Dur })
	n := 5
	if top > 0 && top < n {
		n = top
	}
	if n > len(slowest) {
		n = len(slowest)
	}
	fmt.Println("  slowest:")
	for _, r := range slowest[:n] {
		fmt.Printf("    %-16s %10s  queue %s  seal %s  infer %s  reply %s\n",
			r.Req, us(r.Dur), us(r.Phase["queue"]), us(r.Phase["batch_seal"]),
			us(r.Phase["replica_infer"]), us(r.Phase["reply"]))
	}
	fmt.Println()
	return relErr <= 0.01
}

// quantile is the linear-interpolated percentile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func printEpisodes(a *span.Analysis, top int) {
	eps := a.Episodes()
	if len(eps) == 0 {
		return
	}
	if top > 0 && len(eps) > top {
		// Keep the slowest episodes, then restore lane/episode order.
		sort.SliceStable(eps, func(i, j int) bool { return eps[i].Dur > eps[j].Dur })
		eps = eps[:top]
		sort.Slice(eps, func(i, j int) bool {
			if eps[i].Tid != eps[j].Tid {
				return eps[i].Tid < eps[j].Tid
			}
			return eps[i].Ep < eps[j].Ep
		})
	}
	fmt.Println("Per-episode critical paths")
	fmt.Printf("  %-14s %4s %12s %6s %12s %12s  %s\n", "lane", "ep", "dur", "steps", "max step", "top dur", "top phase")
	for _, e := range eps {
		lane := e.Lane
		if lane == "" {
			lane = fmt.Sprintf("tid %d", e.Tid)
		}
		fmt.Printf("  %-14s %4d %12s %6d %12s %12s  %s\n",
			lane, e.Ep, us(e.Dur), e.Steps, us(e.MaxStep), us(e.TopDur), e.TopPhase)
	}
	fmt.Println()
}

// us renders a microsecond quantity with an adaptive unit.
func us(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fs", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fms", v/1e3)
	default:
		return fmt.Sprintf("%.0fµs", v)
	}
}
