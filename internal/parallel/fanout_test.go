package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanOutRunsEveryShardOnce checks each Run calls every shard exactly
// once, for every shard count and GOMAXPROCS, across repeated runs of one
// FanOut (the reuse a model's PredictBatch makes of it).
func TestFanOutRunsEveryShardOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		var hits [16]atomic.Int32
		f := NewFanOut(func(i int) { hits[i].Add(1) })
		for n := 0; n <= len(hits); n++ {
			for rep := 0; rep < 20; rep++ {
				for i := range hits {
					hits[i].Store(0)
				}
				f.Run(n)
				for i := range hits {
					want := int32(0)
					if i < n {
						want = 1
					}
					if got := hits[i].Load(); got != want {
						t.Fatalf("GOMAXPROCS=%d n=%d rep %d: shard %d ran %d times, want %d", procs, n, rep, i, got, want)
					}
				}
			}
		}
	}
}

// TestFanOutOversubscribed runs many FanOuts at once, far more callers
// than helpers: every Run must still finish with every shard done once,
// the callers picking up what the busy helpers cannot.
func TestFanOutOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sums := make([]int, 8)
			f := NewFanOut(func(i int) { sums[i] += i + 1 })
			for rep := 0; rep < 200; rep++ {
				f.Run(len(sums))
			}
			for i, s := range sums {
				if s != 200*(i+1) {
					t.Errorf("caller %d: shard %d sum %d, want %d", c, i, s, 200*(i+1))
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestFanOutAllocs pins the reason FanOut exists next to ForEach: a warm
// Run allocates nothing.
func TestFanOutAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	out := make([]float64, 4)
	f := NewFanOut(func(i int) { out[i]++ })
	f.Run(len(out))
	if allocs := testing.AllocsPerRun(100, func() { f.Run(len(out)) }); allocs != 0 {
		t.Fatalf("FanOut.Run allocates %.1f times per call, want 0", allocs)
	}
}

// TestFanOutPanicReachesCaller: a shard panic on any goroutine is
// re-raised on the caller after every other shard has run, and the FanOut
// stays usable.
func TestFanOutPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	var ran [6]atomic.Int32
	bad := -1
	f := NewFanOut(func(i int) {
		ran[i].Add(1)
		if i == bad {
			panic("shard failed")
		}
	})
	for bad = 0; bad < len(ran); bad++ {
		func() {
			defer func() {
				if r := recover(); r != "shard failed" {
					t.Fatalf("bad shard %d: recovered %v, want the shard's panic", bad, r)
				}
			}()
			f.Run(len(ran))
		}()
	}
	bad = -1
	f.Run(len(ran))
	for i := range ran {
		if got := ran[i].Load(); got != int32(len(ran)+1) {
			t.Fatalf("shard %d ran %d times, want %d", i, got, len(ran)+1)
		}
	}
}
