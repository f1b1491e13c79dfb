// Package parallel provides the repository's bounded fan-out primitives:
// an errgroup-style worker pool over an index range, an index-ordered
// parallel map, an allocation-free fork/join for hot compute paths
// (FanOut), and a splittable seeding helper that derives decorrelated
// random streams from a (base seed, unit index) pair.
//
// Determinism is the package's contract. Every parallel unit must draw its
// randomness from Seed/Rand keyed by the unit's index — never from a
// stream shared with its siblings — and callers must reduce results in
// index order (Map already returns them that way). Under that discipline
// the outcome of a computation depends only on how the work is decomposed,
// not on how many workers execute it or how the scheduler interleaves
// them: one worker and a hundred produce bit-identical results.
package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"head/internal/obs"
)

// metricsReg holds the optional observability registry every fan-out
// reports into; nil (the default) disables all instrumentation. An atomic
// pointer because SetMetrics may race with in-flight fan-outs.
var metricsReg atomic.Pointer[obs.Registry]

// SetMetrics attaches a registry to the package: subsequent ForEach/Map
// calls record per-unit runtime, queue wait (time from fan-out start to a
// unit's claim), and the live busy-worker count. Pass nil to detach.
// Instrumentation is timing-only and write-only: results, reduction
// order, and random streams are untouched, so the determinism contract is
// unaffected.
func SetMetrics(r *obs.Registry) { metricsReg.Store(r) }

// unitWaitBuckets and unitRunBuckets span microsecond gradient chunks to
// multi-minute training-run units.
var (
	unitWaitBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 300}
	unitRunBuckets  = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 300, 1800}
)

// instrument wraps fn with per-unit metric recording; it returns fn
// unchanged when no registry is attached.
func instrument(fn func(i int) error, workers int) func(i int) error {
	reg := metricsReg.Load()
	if reg == nil {
		return fn
	}
	var (
		start = time.Now()
		units = reg.Counter("parallel.units")
		wait  = reg.Histogram("parallel.queue_wait_seconds", unitWaitBuckets...)
		run   = reg.Histogram("parallel.unit_seconds", unitRunBuckets...)
		busy  = reg.Gauge("parallel.busy_workers")
	)
	reg.Gauge("parallel.pool_workers").Set(float64(workers))
	return func(i int) error {
		wait.Observe(time.Since(start).Seconds())
		busy.Add(1)
		t0 := time.Now()
		err := fn(i)
		run.Observe(time.Since(t0).Seconds())
		busy.Add(-1)
		units.Inc()
		return err
	}
}

// Workers resolves a worker-count knob: values above zero are returned
// unchanged, anything else means "use every core" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Seed derives a child seed from a base seed and a unit index using a
// SplitMix64-style finalizer. Sibling units (same base, different index)
// receive decorrelated streams, and the derivation depends only on the two
// inputs, so the stream assigned to a unit is stable no matter which
// worker runs it or in what order. Nesting is supported: use the returned
// seed as the base for a deeper level of fan-out.
func Seed(base, unit int64) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + (uint64(unit)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Rand returns a private *rand.Rand for the given unit, seeded via Seed.
// Each parallel unit must own its Rand exclusively: *rand.Rand is not safe
// for concurrent use, and sharing one across units would also make results
// depend on scheduling order.
func Rand(base, unit int64) *rand.Rand {
	return rand.New(rand.NewSource(Seed(base, unit)))
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (Workers semantics: <= 0 means all cores). It returns the first error in
// index-claim order and cancels the remaining work; ctx cancellation stops
// the loop early with ctx's error. ForEach always waits for in-flight
// calls to finish before returning, so fn's writes are visible to the
// caller afterwards.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	fn = instrument(fn, w)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order regardless of completion order, which
// is what makes downstream reductions worker-count-invariant. On error the
// results are discarded and the first error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
