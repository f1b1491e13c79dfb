package obs

import (
	"sync"
	"time"
)

// WindowBuckets is the ring granularity of the SLO engine and the drift
// monitor: their window rotates in Window/WindowBuckets steps, so the
// effective window length wobbles by at most one sixth.
const WindowBuckets = 6

// Window is a rolling time window over a fixed ring of sub-window
// buckets. Observe folds into the bucket of the current instant; Each
// visits the buckets still inside the window. Every bucket remembers the
// absolute sub-window index it holds: a bucket whose index is stale is
// reset before reuse and skipped by Each, which is what ages data out.
//
// Safe for concurrent use. The callbacks run under the window's lock and
// must not call back into the window.
type Window[T any] struct {
	width time.Duration // one bucket's span
	clock func() time.Time
	epoch time.Time
	reset func(*T)

	mu   sync.Mutex
	seqs []int64 // absolute sub-window index per slot, -1 when unused
	vals []T
}

// NewWindow returns a window of n buckets, each width long, so the window
// spans n×width. reset must turn a zero or used T into an empty bucket;
// it runs on a slot's first use and whenever the slot is recycled. clock
// is for tests (nil means time.Now).
func NewWindow[T any](n int, width time.Duration, clock func() time.Time, reset func(*T)) *Window[T] {
	if clock == nil {
		clock = time.Now
	}
	w := &Window[T]{width: width, clock: clock, epoch: clock(), reset: reset,
		seqs: make([]int64, n), vals: make([]T, n)}
	for i := range w.seqs {
		w.seqs[i] = -1
	}
	return w
}

// seqAt maps the current instant onto its absolute sub-window index.
func (w *Window[T]) seqAt() int64 {
	return int64(w.clock().Sub(w.epoch) / w.width)
}

// Observe calls fn on the current bucket, resetting it first when it
// still holds an older sub-window.
func (w *Window[T]) Observe(fn func(*T)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.seqAt()
	i := seq % int64(len(w.seqs))
	if w.seqs[i] != seq {
		w.reset(&w.vals[i])
		w.seqs[i] = seq
	}
	fn(&w.vals[i])
}

// Each calls fn on every bucket inside the window, oldest first.
func (w *Window[T]) Each(fn func(*T)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.seqAt()
	n := int64(len(w.seqs))
	for seq := max(now-n+1, 0); seq <= now; seq++ {
		if i := seq % n; w.seqs[i] == seq {
			fn(&w.vals[i])
		}
	}
}
