// Command headbench is the repository's benchmark. One run builds the
// record-scale models from fixed seeds, then measures the three paths a
// HEAD decision takes, interleaved in short slices with fixed shares of
// the run's time:
//
//   - fleet: the served path (serve.NewMux over serve.NewBatcher with
//     headserve's defaults), driven in-process by vehicles that replay
//     seeded observation chains — open-loop segments at a fixed nominal
//     rate, and saturation segments with a fixed window of waiting callers;
//   - episodes: closed-loop HEAD evaluation through
//     eval.RunEpisodesBatched, as the table runs do it;
//   - train: a fixed budget of LST-GAT minibatches and BP-DQN updates.
//
// The workload names the fleet's wire: json (every vehicle sends JSON, so
// the binary codec and the session cache are bypassed) or delta (every
// vehicle sends binary deltas against its session, re-basing at each
// chain end). Every run measures all three paths, so every metric is
// reported on every workload. With --trace 1 the run reports the
// per-layer rows instead, including the staged ledger of one served
// decision at B=1 and B=8. Outputs are checked: sampled served decisions
// must be bit-identical to a direct Replica.DecideBatch, the episode and
// training digests must equal the pinned values, and the ledger must
// close. Run from the repository root, with the arguments BENCHMARK.json
// fixes:
//
//	bash headbench/run.sh --rate 1000 --episodes-digest <hex> --train-digest <hex> \
//	    --workload delta --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the result object; the lines
// before it give the run's provenance and every metric by name and unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Time split: the share of the run's seconds each phase gets.
const (
	openShare     = 0.375 // fleet, open loop
	satShare      = 0.125 // fleet, saturation
	episodesShare = 0.25
	trainShare    = 0.25
)

// minSlices is the fewest slices any phase runs, so every estimate has
// samples to choose from.
const minSlices = 3

// Pinned-digest checks run fixed inputs, independent of the workload seed.
const (
	checkSeed     = 1
	checkEpisodes = batchEnvs
)

var (
	runBudget   = trainBudget{minibatches: 4, updates: 40}
	checkBudget = trainBudget{minibatches: 2, updates: 8}
)

// setupReps is how many times a run builds its fixture to time set-up.
const setupReps = 5

// maxGenLateMs flags a run whose load generator fell behind: its latency
// figures would describe the generator, not the service.
const maxGenLateMs = 100

type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          bool
	rate           float64
	episodesDigest string
	trainDigest    string
	commit         string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "the fleet's wire: json or delta")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fleet chains and schedule, episode set, training data")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer rows instead of the end-to-end metrics")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop nominal rate, decisions per second (fixed, never calibrated per run)")
	flag.StringVar(&o.episodesDigest, "episodes-digest", "", "pinned eval.Metrics digest of the check episode set")
	flag.StringVar(&o.trainDigest, "train-digest", "", "pinned parameter digest of the check training budget")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for provenance")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "headbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "headbench:", err)
		os.Exit(1)
	}
}

// phase is one of a run's interleaved measurements: step runs one slice.
type phase struct {
	share  float64
	used   time.Duration
	slices int
	step   func() error
}

// schedule runs phase slices, always the phase furthest behind its share
// of the time, until total has passed and every phase has run at least
// minSlices slices. Interleaving lets every phase sample the whole run, so
// a stretch where the host is slow weighs on all of them alike. Each slice
// starts from a collected heap, untimed, so no phase pays for collecting
// another phase's garbage.
func schedule(phases []*phase, total time.Duration, minSlices int) error {
	t0 := time.Now()
	for {
		over := time.Since(t0) >= total
		var next *phase
		for _, p := range phases {
			if over && p.slices >= minSlices {
				continue
			}
			if next == nil || p.used.Seconds()/p.share < next.used.Seconds()/next.share {
				next = p
			}
		}
		if next == nil {
			return nil
		}
		runtime.GC()
		s := time.Now()
		if err := next.step(); err != nil {
			return err
		}
		next.used += time.Since(s)
		next.slices++
	}
}

// report collects metrics, the per-slice values behind them, and
// correctness failures.
type report struct {
	metrics  map[string]metric
	slices   map[string][]float64
	problems []string
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// slice records the per-slice values a metric was estimated from; they are
// printed with the run so its noise can be read back.
func (r *report) slice(name string, vs []float64) { r.slices[name] = vs }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(o options) error {
	var jsonWire bool
	switch o.workload {
	case "json":
		jsonWire = true
	case "delta":
	default:
		return fmt.Errorf("unknown workload %q (want json or delta)", o.workload)
	}
	if o.rate <= 0 {
		return errors.New("pass --rate, the fixed open-loop nominal rate")
	}
	f, setupS, err := timeSetup(o.seed, setupReps)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := printProvenance(o, f); err != nil {
		return err
	}
	rep := &report{metrics: map[string]metric{}, slices: map[string][]float64{}}
	var attempted, failed int64

	fl := f.newFleet(o.seed, o.rate, jsonWire)
	defer fl.close()

	var etr *episodeTrace
	var ttr *trainTrace
	workers := runtime.GOMAXPROCS(0)
	if o.trace {
		// One episode worker, so the run's wall time is the sum of its
		// steps and the env-step remainder is exact.
		etr, ttr, workers = &episodeTrace{}, &trainTrace{}, 1
	}
	var rates, trainS []float64
	var eSteps int
	var eWall float64
	var eDigest, tDigest string
	phases := []*phase{
		{share: openShare, step: func() error { fl.openSegment(); return nil }},
		{share: satShare, step: func() error { fl.satSegment(); return nil }},
		{share: episodesShare, step: func() error {
			r := f.runEpisodes(o.seed, episodeCount, workers, etr)
			d, err := digestJSON(r.metrics)
			if err != nil {
				return err
			}
			if eDigest == "" {
				eDigest = d
			} else if d != eDigest {
				rep.fail("episodes: repeated episode set gave digest %s, first pass %s", d, eDigest)
			}
			rates = append(rates, float64(r.steps)/r.seconds)
			eSteps += r.steps
			eWall += r.seconds
			return nil
		}},
		{share: trainShare, step: func() error {
			r := f.runTrain(o.seed, f.dataset, runBudget, ttr)
			if tDigest == "" {
				tDigest = r.digest
			} else if r.digest != tDigest {
				rep.fail("train: repeated budget gave digest %s, first pass %s", r.digest, tDigest)
			}
			trainS = append(trainS, r.seconds)
			attempted += int64(runBudget.minibatches + runBudget.updates)
			return nil
		}},
	}
	if err := schedule(phases, time.Duration(o.seconds*float64(time.Second)), minSlices); err != nil {
		return err
	}
	attempted += int64(eSteps)

	var all tally
	for _, list := range [][]exchange{fl.openEx, fl.satEx} {
		for i := range list {
			all.add(list[i].ok, 0)
		}
	}
	attempted += all.attempted
	failed += all.failed
	if err := f.verifyFleet(fl.wires(), fl.openEx, fl.satEx); err != nil {
		rep.fail("fleet: %v", err)
	}
	if lateMs := fleetLayers(rep, fl, all, o.trace); lateMs > maxGenLateMs {
		return fmt.Errorf("load generator fell behind: gen.late_p99_ms %.1f > %d; run not scored", lateMs, maxGenLateMs)
	}

	// The checks run traced too when the run is, which shows the tracing
	// is out of band: their digests must still equal the pinned ones.
	var checkEp *episodeTrace
	var checkTrain *trainTrace
	if o.trace {
		checkEp, checkTrain = &episodeTrace{}, &trainTrace{}
	}
	check := f.runEpisodes(checkSeed, checkEpisodes, workers, checkEp)
	if d, err := digestJSON(check.metrics); err != nil {
		return err
	} else if d != o.episodesDigest {
		rep.fail("episodes: check digest %s != pinned %q", d, o.episodesDigest)
	}
	cds, err := checkDataset(checkSeed)
	if err != nil {
		return err
	}
	if d := f.runTrain(checkSeed, cds, checkBudget, checkTrain).digest; d != o.trainDigest {
		rep.fail("train: check digest %s != pinned %q", d, o.trainDigest)
	}
	fmt.Printf("digests: episodes %s train %s (seed %d)\n", eDigest, tDigest, o.seed)

	if o.trace {
		episodeLayers(rep, etr, eWall, eSteps)
		trainLayers(rep, ttr, len(trainS))
		for _, bs := range []int{1, 8} {
			rows, err := f.runLedger(bs, time.Second)
			if err != nil {
				rep.fail("ledger B=%d: %v", bs, err)
				continue
			}
			for name, v := range rows {
				unit := "us"
				if name == "ledger.gap_pct" {
					unit = "%"
				}
				rep.set(fmt.Sprintf("%s.b%d", name, bs), unit, v)
			}
			if g := rows["ledger.gap_pct"]; math.Abs(g) > ledgerTolerancePct {
				rep.fail("ledger B=%d does not close: gap %.1f%% beyond ±%d%%", bs, g, ledgerTolerancePct)
			}
		}
	} else {
		fleetEndToEnd(rep, fl, all)
		fmt.Printf("episodes: %d passes, %.1f steps/s pooled; train: %d passes\n",
			len(rates), float64(eSteps)/eWall, len(trainS))
		rep.set("eval_steps_per_s", "1/s", median(rates))
		rep.set("train_s", "s", median(trainS))
		rep.set("setup_s", "s", median(setupS))
		rep.slice("eval_steps_per_s", rates)
		rep.slice("train_s", trainS)
		rep.slice("setup_s", setupS)
		rep.set("max_rss_mb", "MB", maxRSSMB())
	}

	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %14.4f %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	if len(rep.slices) > 0 {
		b, err := json.Marshal(map[string]any{"slices": rep.slices})
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	for _, p := range rep.problems {
		fmt.Println("MISMATCH:", p)
	}
	line, err := encodeResult(result{
		Correct: len(rep.problems) == 0, Attempted: attempted, Failed: failed, Metrics: rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		return fmt.Errorf("%d correctness mismatches", len(rep.problems))
	}
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printProvenance stamps the run: source, toolchain, host and inputs.
func printProvenance(o options, f *fixture) error {
	src, err := sourceDigest(".")
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	p := map[string]any{
		"commit":        o.commit,
		"source_digest": src,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"rate":          o.rate,
		"config_hash":   f.scale.ConfigHash(),
	}
	b, err := json.Marshal(map[string]any{"provenance": p})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
