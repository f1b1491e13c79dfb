package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/serve"
)

// The served path, driven in-process: vehicles call the decision mux's
// ServeHTTP directly, the way net/http's per-connection goroutines would,
// so no socket limits how many requests wait for a batch.
const (
	tickPeriod = 500 * time.Millisecond // Δt: each vehicle decides at 2 Hz
	giveUp     = time.Second            // a reply later than this is a failure
	satWindow  = 16                     // waiting callers in the saturation phase
	sampleEach = 8                      // verify every 8th success of each vehicle on each wire against a direct replica
)

// Wire forms a request body can take.
const (
	wireJSON = iota
	wireBinary
	wireDelta
	wireCount
)

var wireNames = [wireCount]string{"json", "binary", "delta"}

// service is one decision service as headserve builds it with its
// defaults: B=8, MaxWait 2 ms, one replica, the default session cache and
// request telemetry on.
type service struct {
	batcher  *serve.Batcher
	sessions *serve.SessionCache
	mux      http.Handler
}

func (f *fixture) newService() *service {
	reg := obs.NewRegistry()
	b := serve.NewBatcher(serve.BatcherConfig{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Replicas: 1, Metrics: reg},
		func() serve.Decider { return f.replica() })
	slo := obs.NewSLO(obs.SLOConfig{Window: time.Minute, P50TargetMs: 10, P99TargetMs: 50, ErrorBudget: 0.01})
	slo.Bind(reg, "slo")
	tel := serve.NewTelemetry(serve.TelemetryConfig{
		Tracer:    span.New(span.Config{}),
		SLO:       slo,
		Exemplars: serve.NewExemplarRing(8, time.Minute, nil),
	})
	sessions := serve.NewSessionCache(serve.DefaultSessionCap)
	return &service{
		batcher:  b,
		sessions: sessions,
		mux:      serve.NewMux(b, f.envCfg.Sensor.Z, "", sessions, reg, tel),
	}
}

// exchange is the record of one decision request. Runs keep tens of
// thousands of them, so it holds only what the report and the checks use:
// the response's phase envelope, and the decision only when it is sampled
// for verification. The benchmark's own bookkeeping then adds little to
// the measured peak memory.
type exchange struct {
	due, sent, done time.Time
	late            time.Duration // generator lateness (open loop only)
	window          int           // latency window (open loop only)
	ok              bool
	wire            int           // wire form of the request that was answered
	firstBytes      int           // body size of the first attempt
	handler         time.Duration // ServeHTTP time of the answered attempt
	resp            envelope
	decision        *serve.Decision // the served decision, sampled exchanges only
	obs             *serve.Observation
}

// envelope is the server's account of an answered request, copied from
// its response.
type envelope struct {
	QueueMicros, SealMicros, InferMicros, ReplyMicros int64
	BatchSize                                         int
}

// vehicle is one client session replaying an observation chain.
type vehicle struct {
	session string
	json    bool
	chain   []serve.Observation
	bodies  [][]byte // JSON encodings of chain, made at set-up; shared, read-only
	pos     int
	// acked is the snapshot the server's session cache holds for this
	// vehicle after its last successful binary request (nil: none).
	acked    []serve.Frame
	body     []byte         // the vehicle's own binary request buffer
	answered [wireCount]int // successes per wire, for sampling
}

// next advances the vehicle along its chain. Passing the chain end
// re-bases the session: the relation "one step after the acknowledged
// snapshot" no longer holds.
func (v *vehicle) next() *serve.Observation {
	o := &v.chain[v.pos]
	v.pos = (v.pos + 1) % len(v.chain)
	return o
}

// post sends one body through the mux and returns the status, the
// recorder and the handler time.
func (s *service) post(ctx context.Context, id, contentType string, body []byte) (*httptest.ResponseRecorder, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/decide", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(serve.RequestIDHeader, id)
	if contentType == serve.WireContentType {
		req.Header.Set("Accept", serve.WireContentType)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.mux.ServeHTTP(rec, req)
	return rec, time.Since(t0), nil
}

// decide runs one full exchange for the vehicle's next observation: the
// request in the vehicle's wire form and, for a delta the server cannot
// apply (409), one full resend.
func (s *service) decide(v *vehicle, id string, ex *exchange) {
	idx := v.pos
	o := v.next()
	ex.obs = o
	ex.sent = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), giveUp)
	defer cancel()
	var statuses []int
	attempt := func(wire int) *httptest.ResponseRecorder {
		ct, body := serve.WireContentType, v.bodies[idx]
		switch wire {
		case wireJSON:
			ct = "application/json"
		case wireBinary:
			v.body = serve.AppendFull(v.body[:0], []byte(v.session), o.Frames)
			body = v.body
		case wireDelta:
			base := serve.HashFrames(v.acked)
			if idx == 0 {
				// Re-base at the chain end: the vehicle names a base the
				// server does not hold, which forces a 409 resync.
				base = serve.HashFrames(o.Frames)
			}
			v.body = serve.AppendDelta(v.body[:0], []byte(v.session), base, o.Frames[len(o.Frames)-1:])
			body = v.body
		}
		if len(statuses) == 0 {
			ex.firstBytes = len(body)
		}
		rec, d, err := s.post(ctx, id, ct, body)
		if err != nil {
			return nil
		}
		statuses = append(statuses, rec.Code)
		ex.wire, ex.handler = wire, d
		return rec
	}
	var rec *httptest.ResponseRecorder
	switch {
	case v.json:
		rec = attempt(wireJSON)
	case v.acked == nil:
		rec = attempt(wireBinary)
	default:
		rec = attempt(wireDelta)
		if rec != nil && rec.Code == http.StatusConflict {
			rec = attempt(wireBinary)
		}
	}
	ex.done = time.Now()
	ex.ok = rec != nil && exchangeOK(statuses, ex.done.Sub(ex.sent) > giveUp)
	if ex.ok {
		var resp serve.DecideResponse
		var err error
		if ex.wire == wireJSON {
			err = json.Unmarshal(rec.Body.Bytes(), &resp)
		} else {
			err = serve.DecodeResponse(rec.Body.Bytes(), &resp)
		}
		ex.ok = err == nil
		if ex.ok {
			ex.resp = envelope{resp.QueueMicros, resp.SealMicros, resp.InferMicros, resp.ReplyMicros, resp.BatchSize}
			if v.answered[ex.wire]%sampleEach == 0 {
				d := resp.Decision
				ex.decision = &d
			}
			v.answered[ex.wire]++
		}
	}
	if !v.json {
		if ex.ok {
			v.acked = o.Frames
		} else {
			v.acked = nil
		}
	}
}

// fleetPlan fixes one fleet phase's inputs from the workload seed.
type fleetPlan struct {
	vehicles []*vehicle
	offsets  []time.Duration // open loop: each vehicle's phase within a tick
}

// Fleet phases, each with its own vehicles and random stream.
const (
	phaseWarm int64 = iota
	phaseOpen
	phaseSat
)

var phaseNames = []string{"warm", "open", "sat"}

// planFleet builds n vehicles for a phase, all speaking JSON or all binary
// delta: each replays a seed-chosen chain from a seed-chosen position, and
// ticks at a seed-jittered phase offset.
func (f *fixture) planFleet(seed, phase int64, n int, jsonWire bool) fleetPlan {
	rng := rand.New(rand.NewSource(parallel.Seed(parallel.Seed(seed, streamFleet), phase)))
	p := fleetPlan{}
	for i := 0; i < n; i++ {
		c := rng.Intn(len(f.chains))
		v := &vehicle{
			session: fmt.Sprintf("%s-%04d", phaseNames[phase], i),
			json:    jsonWire,
			chain:   f.chains[c],
			bodies:  f.jsonChains[c],
		}
		v.pos = rng.Intn(len(v.chain))
		p.vehicles = append(p.vehicles, v)
		p.offsets = append(p.offsets, time.Duration((float64(i)+rng.Float64())/float64(n)*float64(tickPeriod)))
	}
	return p
}

// openLoop runs one open-loop segment from start: every vehicle ticks at
// 2 Hz for ticks ticks, each request due on schedule whether or not the
// service kept up. It returns the exchanges in vehicle-major order.
func (s *service) openLoop(p fleetPlan, start time.Time, ticks int) []exchange {
	out := make([]exchange, len(p.vehicles)*ticks)
	var wg sync.WaitGroup
	for i, v := range p.vehicles {
		wg.Add(1)
		go func(i int, v *vehicle) {
			defer wg.Done()
			var prevDone time.Time
			for k := 0; k < ticks; k++ {
				ex := &out[i*ticks+k]
				ex.due = tickDue(start, p.offsets[i], tickPeriod, k)
				time.Sleep(time.Until(ex.due))
				s.decide(v, fmt.Sprintf("%s-%06d", v.session, k), ex)
				ex.late = lateness(ex.sent, ex.due, prevDone)
				prevDone = ex.done
			}
		}(i, v)
	}
	wg.Wait()
	return out
}

// saturate keeps satWindow callers waiting on the service, each sending
// its next request as soon as the previous one is answered, for d. It
// returns the exchanges, the segment start and its length.
func (s *service) saturate(p fleetPlan, d time.Duration) ([]exchange, time.Time, time.Duration) {
	var stop atomic.Bool
	per := make([][]exchange, len(p.vehicles))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, v := range p.vehicles {
		wg.Add(1)
		go func(i int, v *vehicle) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				var ex exchange
				ex.due = time.Now()
				s.decide(v, fmt.Sprintf("%s-%06d", v.session, k), &ex)
				per[i] = append(per[i], ex)
			}
		}(i, v)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	var out []exchange
	for _, exs := range per {
		out = append(out, exs...)
	}
	return out, t0, elapsed
}

// Segment sizes: the run alternates short open-loop and saturation
// segments with the other workloads, so every phase samples the whole run
// rather than one stretch of it.
const (
	latencyMinSamples = 1000                   // requests per latency window: p99 keeps minBeyond beyond it
	latencyWindows    = 2                      // latency windows per open-loop segment
	satSegment        = time.Second            // one saturation segment
	capacityWindow    = 250 * time.Millisecond // capacity is counted per window
)

// fleet is one decision service with its open-loop and saturation
// vehicles, and everything its segments recorded.
type fleet struct {
	svc           *service
	jsonWire      bool
	open, sat     fleetPlan
	ticks         int           // open-loop ticks per segment
	latWidth      time.Duration // open-loop latency window
	segments      int
	openEx, satEx []exchange
	capRates      []float64 // answered requests per second, per capacity window
	satTime       time.Duration
	hits, resyncs uint64 // session cache counters over the open-loop segments
}

// newFleet starts the service and warms it with a short, unrecorded
// saturation burst. rate is the open-loop nominal rate in decisions per
// second: rate·Δt vehicles tick at 2 Hz. jsonWire picks the vehicles'
// wire: JSON, or binary delta.
func (f *fixture) newFleet(seed int64, rate float64, jsonWire bool) *fleet {
	n := int(math.Round(rate * tickPeriod.Seconds()))
	perWindow := int(math.Ceil(latencyMinSamples / float64(n)))
	fl := &fleet{
		svc:      f.newService(),
		jsonWire: jsonWire,
		open:     f.planFleet(seed, phaseOpen, n, jsonWire),
		sat:      f.planFleet(seed, phaseSat, satWindow, jsonWire),
		ticks:    perWindow * latencyWindows,
		latWidth: time.Duration(perWindow) * tickPeriod,
	}
	fl.svc.saturate(f.planFleet(seed, phaseWarm, satWindow, jsonWire), 300*time.Millisecond)
	return fl
}

// openSegment runs one open-loop segment and files its exchanges under
// their latency windows.
func (fl *fleet) openSegment() {
	before := *fl.svc.sessions.Stats()
	start := time.Now().Add(50 * time.Millisecond)
	exs := fl.svc.openLoop(fl.open, start, fl.ticks)
	after := *fl.svc.sessions.Stats()
	fl.hits += after.Hits - before.Hits
	fl.resyncs += after.Resyncs - before.Resyncs
	for i := range exs {
		exs[i].window = fl.segments*latencyWindows + int(exs[i].due.Sub(start)/fl.latWidth)
	}
	fl.segments++
	fl.openEx = append(fl.openEx, exs...)
}

// satSegment runs one saturation segment and records its capacity
// windows.
func (fl *fleet) satSegment() {
	n := int(satSegment / capacityWindow)
	exs, start, elapsed := fl.svc.saturate(fl.sat, satSegment)
	var done []time.Time
	for i := range exs {
		if exs[i].ok {
			done = append(done, exs[i].done)
		}
	}
	fl.capRates = append(fl.capRates, windowRates(done, start, capacityWindow, n)...)
	fl.satTime += elapsed
	fl.satEx = append(fl.satEx, exs...)
}

// wires are the wire forms the fleet's requests take: a delta vehicle's
// first request, and every resend after a 409, is a full binary one.
func (fl *fleet) wires() []int {
	if fl.jsonWire {
		return []int{wireJSON}
	}
	return []int{wireBinary, wireDelta}
}

// close drains the service: every request answered, every goroutine
// joined.
func (fl *fleet) close() { fl.svc.batcher.Close() }

// verifyFleet re-decides every sampled exchange (each vehicle's first
// success on a wire and every sampleEach-th after it) on a direct replica
// and requires bit-identical decisions; each of the wires must contribute
// samples.
func (f *fixture) verifyFleet(wires []int, exs ...[]exchange) error {
	r := f.replica()
	var seen [wireCount]int
	out := make([]serve.Decision, 1)
	for _, list := range exs {
		for i := range list {
			ex := &list[i]
			if ex.decision == nil {
				continue
			}
			seen[ex.wire]++
			if err := r.DecideBatch([]*serve.Observation{ex.obs}, out); err != nil {
				return fmt.Errorf("direct replica: %w", err)
			}
			if !sameDecision(*ex.decision, out[0]) {
				return fmt.Errorf("served %s decision differs from the direct replica: %+v vs %+v",
					wireNames[ex.wire], *ex.decision, out[0])
			}
		}
	}
	for _, w := range wires {
		if seen[w] == 0 {
			return fmt.Errorf("no successful %s request to verify", wireNames[w])
		}
	}
	return nil
}

// sameDecision compares the decision fields a client receives, bit for bit.
func sameDecision(a, b serve.Decision) bool {
	if a.Behavior != b.Behavior || len(a.Params) != len(b.Params) ||
		math.Float64bits(a.Accel) != math.Float64bits(b.Accel) ||
		math.Float64bits(a.AttnEntropy) != math.Float64bits(b.AttnEntropy) {
		return false
	}
	for i := range a.Params {
		if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
			return false
		}
	}
	return true
}
