package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut is the allocation-free fork/join of the compute kernels: one
// shard function, bound once at construction, run over [0, n) per Run call
// by the calling goroutine together with a persistent, package-wide set of
// helper goroutines. Unlike ForEach it creates no goroutine, closure,
// context or error per call, so a hot path can fan out on every call and
// still report 0 allocs/op; it carries no instrumentation and no error
// path for the same reason.
//
// Shards are claimed atomically, and the caller claims too: Run wakes up
// to n−1 helpers, then runs every shard nobody has taken yet, and only
// then waits for the shards helpers are still running. A helper that wakes
// late finds nothing left to claim. So when every core is already busy —
// an episodes pool of GOMAXPROCS workers, several serving replicas — Run
// degrades to the caller's serial loop instead of stalling on a helper.
//
// A FanOut belongs to one goroutine at a time: Run must not be called
// concurrently on the same FanOut. fn's writes are visible to the caller
// when Run returns. A panicking shard does not take its helper down: the
// remaining shards still run, and Run re-panics with the first recovered
// value on the caller once every shard has finished.
type FanOut struct {
	fn    func(shard int)
	claim atomic.Uint64 // shard count << 32 | next unclaimed shard
	wg    sync.WaitGroup

	mu       sync.Mutex
	panicked any // first value recovered from a shard of the current Run
}

// NewFanOut binds fn, which Run calls once per shard index.
func NewFanOut(fn func(shard int)) *FanOut { return &FanOut{fn: fn} }

// Run calls fn(i) for every i in [0, n), each exactly once, and returns
// when all calls have finished. n <= 1 runs inline without touching the
// helpers.
func (f *FanOut) Run(n int) {
	if n <= 1 {
		if n == 1 {
			f.fn(0)
		}
		return
	}
	wake := ensureHelpers(n - 1)
	f.wg.Add(n)
	// Publishing the new count and a zero cursor in one word makes a
	// stale wake-up from an earlier Run harmless: its claim either sees
	// this run's state or fails its compare-and-swap.
	f.claim.Store(uint64(n) << 32)
	for i := 0; i < wake; i++ {
		select {
		case helperWork <- f:
		default: // queue full: the caller claims the shard itself
		}
	}
	f.drain()
	f.wg.Wait()
	if p := f.panicked; p != nil {
		f.panicked = nil
		panic(p)
	}
}

// drain claims and runs shards until none is left unclaimed.
func (f *FanOut) drain() {
	for {
		s := f.claim.Load()
		next, n := s&(1<<32-1), s>>32
		if next >= n {
			return
		}
		if f.claim.CompareAndSwap(s, s+1) {
			f.run(int(next))
		}
	}
}

// run calls fn for one claimed shard, recording instead of propagating a
// panic so the shard is always counted done.
func (f *FanOut) run(shard int) {
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if f.panicked == nil {
				f.panicked = r
			}
			f.mu.Unlock()
		}
		f.wg.Done()
	}()
	f.fn(shard)
}

// The helper set is shared by every FanOut and only grows, up to
// GOMAXPROCS−1 goroutines; each one drains whichever FanOut it is handed.
// Like the runtime's own workers the helpers live for the process, parked
// on the queue when idle: tying them to a FanOut would leak them with
// every model clone dropped without a close. The queue holds wake-ups, not
// work: a wake-up whose shards were all claimed by the time a helper reads
// it costs one atomic load, and a full queue only means a caller runs the
// shard itself, so its size (room for the wake-ups of many concurrent
// Runs) bounds memory, not correctness.
var (
	helperWork  = make(chan *FanOut, 256)
	helperCount atomic.Int32
	helperMu    sync.Mutex
)

// ensureHelpers grows the helper set towards want (capped at GOMAXPROCS−1)
// and returns how many helpers to wake.
func ensureHelpers(want int) int {
	if m := runtime.GOMAXPROCS(0) - 1; want > m {
		want = m
	}
	if int(helperCount.Load()) >= want {
		return want
	}
	helperMu.Lock()
	for int(helperCount.Load()) < want {
		helperCount.Add(1)
		go func() {
			for f := range helperWork {
				f.drain()
			}
		}()
	}
	helperMu.Unlock()
	return want
}
