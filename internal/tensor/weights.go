package tensor

import "sync"

// Weights wraps a canonical float64 parameter matrix with lazily built,
// generation-counted derived views: the f64 transpose the dot kernels want
// (T) and the float32 mirrors the f32 backend computes against (M32, T32).
// A view is rebuilt from the canonical matrix the first time it is
// requested after a Touch, then served from cache; in steady-state
// inference (no Touch between forwards) every view access is a pointer
// read.
//
// Touch discipline: every mutation of the canonical matrix's Data must be
// followed by a Touch before the next view access, or the views go stale.
// Inside this codebase all weight mutation funnels through internal/nn
// (optimizer steps, CopyParams/SoftUpdate, checkpoint Load, init), which
// Touches at each site; the staleness test in internal/nn pins that.
//
// Transposition and f32 staging are pure data relayout/rounding — they
// change which float is loaded when, never what the consuming kernel
// multiplies or in which order — so a kernel reading T is bit-identical to
// the same kernel transposing on the fly.
//
// View access is safe for concurrent use: weight-sharing model views
// forwarding on several goroutines may race to rebuild a view after a
// Touch, and the mutex makes exactly one of them do it. Touch itself must
// not overlap a forward (the optimizer never runs during inference).
type Weights struct {
	m *Matrix

	mu     sync.Mutex // guards gen and the cached views
	gen    uint64
	t      *Matrix
	tGen   uint64
	m32    *Matrix32
	m32Gen uint64
	t32    *Matrix32
	t32Gen uint64
}

// NewWeights wraps m. The wrapper aliases m — it does not copy — so
// mutations through either handle are visible to both.
func NewWeights(m *Matrix) *Weights {
	return &Weights{m: m, gen: 1}
}

// Mat returns the canonical float64 matrix.
func (w *Weights) Mat() *Matrix { return w.m }

// Touch invalidates every derived view; the next access rebuilds from the
// canonical matrix. Call after any mutation of Mat().Data.
func (w *Weights) Touch() {
	w.mu.Lock()
	w.gen++
	w.mu.Unlock()
}

// T returns the cached float64 transpose of the canonical matrix.
// The returned matrix is owned by the cache: callers must not write it,
// and it is only valid until the next Touch.
func (w *Weights) T() *Matrix {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t == nil {
		w.t = New(w.m.Cols, w.m.Rows)
		w.tGen = 0
	}
	if w.tGen != w.gen {
		TransposeInto(w.t, w.m)
		w.tGen = w.gen
	}
	return w.t
}

// M32 returns the cached float32 rounding of the canonical matrix. Same
// ownership rules as T.
func (w *Weights) M32() *Matrix32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.m32 == nil {
		w.m32 = New32(w.m.Rows, w.m.Cols)
		w.m32Gen = 0
	}
	if w.m32Gen != w.gen {
		Stage32(w.m32, w.m)
		w.m32Gen = w.gen
	}
	return w.m32
}

// T32 returns the cached float32 rounding of the transpose. Rounding and
// transposing commute elementwise, so this equals both Stage32(T()) and
// Transpose(M32()); it is built directly from the canonical matrix without
// materializing either intermediate. Same ownership rules as T.
func (w *Weights) T32() *Matrix32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t32 == nil {
		w.t32 = New32(w.m.Cols, w.m.Rows)
		w.t32Gen = 0
	}
	if w.t32Gen != w.gen {
		for i := 0; i < w.m.Rows; i++ {
			row := w.m.Row(i)
			for j, v := range row {
				w.t32.Data[j*w.m.Rows+i] = float32(v)
			}
		}
		w.t32Gen = w.gen
	}
	return w.t32
}
