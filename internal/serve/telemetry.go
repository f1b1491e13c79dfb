package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"head/internal/obs"
	"head/internal/obs/span"
)

// Exemplar is one captured tail request: enough context to replay and
// explain a slow decision after the fact — the request id, the wall-clock
// moment, the end-to-end latency with its server-side phase breakdown,
// the micro-batch it rode in, and the full wire observation.
type Exemplar struct {
	ID        string    `json:"id"`
	At        time.Time `json:"at"`
	E2EMs     float64   `json:"e2e_ms"`
	QueueMs   float64   `json:"queue_ms"`
	SealMs    float64   `json:"seal_ms"`
	InferMs   float64   `json:"infer_ms"`
	ReplyMs   float64   `json:"reply_ms"`
	BatchSize int       `json:"batch_size"`
	Status    int       `json:"status"`
	Err       string    `json:"error,omitempty"`
	// Observation is the request's wire body, marshaled only when the
	// request is actually admitted to the ring (tail capture must not tax
	// the fast path).
	Observation json.RawMessage `json:"observation,omitempty"`
}

// ExemplarRing captures the slowest K requests per rolling window. It is
// a two-bucket obs.Window, each bucket one window long and bounded at K:
// the current window accumulates into its bucket, and the completed
// window's bucket is retained as the previous generation, so a snapshot
// always covers between one and two windows of tail history. Safe for
// concurrent use.
type ExemplarRing struct {
	k       int
	win     *obs.Window[[]Exemplar]
	drained atomic.Bool
}

// NewExemplarRing returns a ring keeping the slowest k requests per
// window (k ≤ 0 means 8; window ≤ 0 means 60s). clock is for tests (nil
// means time.Now).
func NewExemplarRing(k int, window time.Duration, clock func() time.Time) *ExemplarRing {
	if k <= 0 {
		k = 8
	}
	if window <= 0 {
		window = time.Minute
	}
	return &ExemplarRing{k: k, win: obs.NewWindow(2, window, clock, func(b *[]Exemplar) { *b = nil })}
}

// retained returns both generations, slowest first.
func (r *ExemplarRing) retained() []Exemplar {
	var out []Exemplar
	r.win.Each(func(b *[]Exemplar) { out = append(out, *b...) })
	sort.Slice(out, func(i, j int) bool { return out[i].E2EMs > out[j].E2EMs })
	return out
}

// Offer considers one completed request for tail capture. wire is invoked
// only when the request displaces into the ring, so the fast path never
// pays the observation marshal (nil wire skips the body).
func (r *ExemplarRing) Offer(e Exemplar, wire func() []byte) {
	if r == nil || r.drained.Load() {
		return
	}
	r.win.Observe(func(cur *[]Exemplar) {
		if len(*cur) < r.k {
			if wire != nil {
				e.Observation = wire()
			}
			*cur = append(*cur, e)
			return
		}
		set := *cur
		min := 0
		for i := 1; i < len(set); i++ {
			if set[i].E2EMs < set[min].E2EMs {
				min = i
			}
		}
		if e.E2EMs > set[min].E2EMs {
			if wire != nil {
				e.Observation = wire()
			}
			set[min] = e
		}
	})
}

// Snapshot returns the retained exemplars — the current window's set plus
// the previous generation — slowest first.
func (r *ExemplarRing) Snapshot() []Exemplar {
	if r == nil || r.drained.Load() {
		return nil
	}
	return r.retained()
}

// Drain flushes the ring exactly once: the first call returns every
// retained exemplar (slowest first) and seals the ring against further
// capture; later calls return nil. This is the shutdown path — the drain
// dump lands in the run manifest.
func (r *ExemplarRing) Drain() []Exemplar {
	if r == nil || !r.drained.CompareAndSwap(false, true) {
		return nil
	}
	return r.retained()
}

// TelemetryConfig wires the request-telemetry layer. Every field is
// optional: a nil Tracer records no spans, a nil SLO evaluates nothing, a
// nil Exemplars captures nothing — and a nil *Telemetry disables the
// whole layer while request ids keep working.
type TelemetryConfig struct {
	// Tracer receives the per-request span trees (request → decode /
	// queue / batch_seal / replica_infer / reply / encode), sharing the flight recorder's
	// ring, Chrome export, and /debug/trace machinery.
	Tracer *span.Tracer
	// Sample is the fraction of requests whose spans are recorded; 0 as
	// well as anything ≥ 1 records every request. The decision is a
	// deterministic hash of the request sequence number — out of band, no
	// experiment randomness.
	Sample float64
	// Lanes sizes the span track pool request spans round-robin onto
	// (default 8). More lanes reduce visual overlap in Perfetto; the
	// analyzer is indifferent.
	Lanes int
	// SLO receives every request's latency/error outcome.
	SLO *obs.SLO
	// Exemplars receives tail-capture candidates.
	Exemplars *ExemplarRing
	// Quality receives every successful decision for online drift
	// detection against the loaded behavioral baseline.
	Quality *QualityFeed
}

// Telemetry is the request-scoped telemetry layer of the decision
// service: it assigns request ids, samples requests into the span flight
// recorder, feeds the SLO engine, and offers every completed request to
// the tail-exemplar ring. All of it is strictly out of band — served
// decisions are bit-identical with telemetry off, on, or sampled.
type Telemetry struct {
	cfg       TelemetryConfig
	sampleAll bool
	laneIDs   []int64

	seq      atomic.Uint64
	started  atomic.Int64
	finished atomic.Int64
}

// fallbackSeq mints request ids when no Telemetry is attached: ids must
// exist for error correlation even with telemetry disabled.
var fallbackSeq atomic.Uint64

// NewTelemetry builds the layer and allocates its span lanes.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 8
	}
	t := &Telemetry{cfg: cfg, sampleAll: cfg.Sample <= 0 || cfg.Sample >= 1}
	if cfg.Tracer != nil {
		t.laneIDs = make([]int64, cfg.Lanes)
		for i := range t.laneIDs {
			t.laneIDs[i] = cfg.Tracer.Lane(fmt.Sprintf("requests-%d", i)).ID()
		}
	}
	return t
}

// Tracer returns the attached span tracer (nil when absent or on a nil
// receiver).
func (t *Telemetry) Tracer() *span.Tracer {
	if t == nil {
		return nil
	}
	return t.cfg.Tracer
}

// SLO returns the attached SLO engine (nil when absent).
func (t *Telemetry) SLO() *obs.SLO {
	if t == nil {
		return nil
	}
	return t.cfg.SLO
}

// Exemplars returns the attached tail-exemplar ring (nil when absent).
func (t *Telemetry) Exemplars() *ExemplarRing {
	if t == nil {
		return nil
	}
	return t.cfg.Exemplars
}

// Quality returns the attached decision-quality feed (nil when absent).
func (t *Telemetry) Quality() *QualityFeed {
	if t == nil {
		return nil
	}
	return t.cfg.Quality
}

// Started counts requests that entered the layer (Begin calls); Finished
// counts completed ones (Finish calls). The two are equal whenever no
// request is in flight — the drain invariant the shutdown tests pin.
func (t *Telemetry) Started() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Finished counts completed requests (see Started).
func (t *Telemetry) Finished() int64 {
	if t == nil {
		return 0
	}
	return t.finished.Load()
}

// sampled is the deterministic per-request trace decision: a SplitMix64
// finalizer over the sequence number, the top 53 bits as a uniform
// float — the same out-of-band scheme the step tracer uses.
func (t *Telemetry) sampled(seq uint64) bool {
	if t.sampleAll {
		return true
	}
	z := (seq + 1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < t.cfg.Sample
}

// ReqTrace follows one request from ingress to reply. Begin opens it,
// Finish closes it exactly once; the zero/done state makes repeated
// Finish calls no-ops, so every handler exit path can call it safely.
type ReqTrace struct {
	tel   *Telemetry
	ID    string
	seq   uint64
	start time.Time
	// decoded marks the end of request-body wire decode (MarkDecoded);
	// encoding marks the start of response serialization (MarkEncoding).
	// Either may stay zero — failed requests never reach them — and the
	// span emitter skips the corresponding phase.
	decoded  time.Time
	encoding time.Time
	done     bool
}

// MarkDecoded stamps the end of the request's wire-decode phase (body read
// + JSON or binary decode + delta reconstruction). Nil-safe.
func (rt *ReqTrace) MarkDecoded() {
	if rt != nil {
		rt.decoded = time.Now()
	}
}

// MarkEncoding stamps the start of response serialization, splitting the
// tail of the request into reply (batcher handoff) and encode (wire
// marshal + write). Nil-safe.
func (rt *ReqTrace) MarkEncoding() {
	if rt != nil {
		rt.encoding = time.Now()
	}
}

// Begin opens a request trace. id is the client-propagated request id
// (X-Request-ID); empty mints a server-assigned one. Begin works on a nil
// *Telemetry — ids must flow even with telemetry off — and never touches
// the experiment random streams.
func (t *Telemetry) Begin(id string) *ReqTrace {
	var seq uint64
	if t == nil {
		seq = fallbackSeq.Add(1) - 1
	} else {
		seq = t.seq.Add(1) - 1
		t.started.Add(1)
	}
	if id == "" {
		id = fmt.Sprintf("srv-%06d", seq)
	}
	return &ReqTrace{tel: t, ID: id, seq: seq, start: time.Now()}
}

// Finish closes the request trace: the SLO engine sees its outcome, the
// exemplar ring gets a tail-capture offer, and — when this request is
// sampled — its span tree lands in the flight recorder. o may be nil
// (the request never decoded); res carries the batcher timestamps when
// the request reached a replica. Idempotent: only the first call records.
func (rt *ReqTrace) Finish(o *Observation, res Result, status int, reqErr error) {
	if rt == nil || rt.done {
		return
	}
	rt.done = true
	t := rt.tel
	if t == nil {
		return
	}
	end := time.Now()
	e2e := end.Sub(rt.start)
	t.finished.Add(1)

	isErr := reqErr != nil || status >= 400
	if errors.Is(reqErr, ErrResync) {
		// A 409 resend-full is delta-protocol flow control, not a service
		// failure: the client heals it with one full retry, which is
		// observed as its own request. Deliberate cache pressure (a
		// squeezed -session-cache) must not burn the error budget.
		isErr = false
	}
	t.cfg.SLO.Observe(e2e, isErr)

	if !isErr && status == 200 {
		// Only decisions actually delivered shape the behavior-drift
		// windows; failed or rejected requests carry no decision.
		t.cfg.Quality.Observe(o, res.Decision)
	}

	if t.cfg.Exemplars != nil {
		ex := Exemplar{
			ID: rt.ID, At: rt.start, E2EMs: e2e.Seconds() * 1e3,
			BatchSize: res.BatchSize, Status: status,
		}
		if reqErr != nil {
			ex.Err = reqErr.Error()
		}
		if !res.Enqueued.IsZero() {
			ex.QueueMs = res.Flushed.Sub(res.Enqueued).Seconds() * 1e3
			ex.SealMs = res.InferStart.Sub(res.Flushed).Seconds() * 1e3
			ex.InferMs = res.InferDone.Sub(res.InferStart).Seconds() * 1e3
			ex.ReplyMs = end.Sub(res.InferDone).Seconds() * 1e3
		}
		var wire func() []byte
		if o != nil {
			wire = func() []byte {
				b, err := json.Marshal(o)
				if err != nil {
					return nil
				}
				return b
			}
		}
		t.cfg.Exemplars.Offer(ex, wire)
	}

	tr := t.cfg.Tracer
	if tr == nil || !t.sampled(rt.seq) {
		return
	}
	lane := t.laneIDs[rt.seq%uint64(len(t.laneIDs))]
	var child int64
	emit := func(name string, from, to time.Time) {
		if from.IsZero() || to.Before(from) {
			return
		}
		d := to.Sub(from)
		child += int64(d)
		tr.Record(span.Span{
			Name: name, Parent: "request", Req: rt.ID, Lane: lane,
			Start: tr.Since(from), Dur: int64(d), Ep: -1, Step: -1,
		})
	}
	if !rt.decoded.IsZero() {
		emit("decode", rt.start, rt.decoded)
	}
	if !res.Enqueued.IsZero() {
		emit("queue", res.Enqueued, res.Flushed)
		emit("batch_seal", res.Flushed, res.InferStart)
		emit("replica_infer", res.InferStart, res.InferDone)
		replyEnd := end
		if !rt.encoding.IsZero() {
			replyEnd = rt.encoding
		}
		emit("reply", res.InferDone, replyEnd)
	}
	if !rt.encoding.IsZero() {
		emit("encode", rt.encoding, end)
	}
	tr.Record(span.Span{
		Name: "request", Parent: "", Req: rt.ID, Lane: lane,
		Start: tr.Since(rt.start), Dur: int64(e2e), Child: child,
		Ep: -1, Step: -1,
	})
}
