package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"head/internal/nn"
)

// The pure parts of the benchmark: percentile rules, the open-loop
// schedule, failure accounting, digests and the result line. Everything
// here is deterministic and covered by stats_test.go.

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// values: the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// sortedCopy returns an ascending copy of values.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 nearest-rank percentile of unsorted values.
func median(values []float64) float64 { return percentile(sortedCopy(values), 0.5) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailQuantiles are the percentiles a timing may report, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest of tailQuantiles that leaves at least
// minBeyond of n samples beyond it, and false when even the median does
// not.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// windowQuantiles groups samples by window and returns, in window order,
// the q-quantile of every window holding at least minN samples.
func windowQuantiles(windows []int, vals []float64, q float64, minN int) []float64 {
	byWin := map[int][]float64{}
	for i, w := range windows {
		byWin[w] = append(byWin[w], vals[i])
	}
	keys := make([]int, 0, len(byWin))
	for w, v := range byWin {
		if len(v) >= minN {
			keys = append(keys, w)
		}
	}
	sort.Ints(keys)
	qs := make([]float64, len(keys))
	for i, w := range keys {
		qs[i] = percentile(sortedCopy(byWin[w]), q)
	}
	return qs
}

// windowRates counts events in n consecutive width-wide windows from start
// and returns each window's rate per second.
func windowRates(at []time.Time, start time.Time, width time.Duration, n int) []float64 {
	if n <= 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range at {
		if w := int(t.Sub(start) / width); t.After(start) && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// tickDue is the due time of vehicle tick k: every vehicle ticks with a
// fixed period from its own phase offset, whether or not the service kept
// up (open loop).
func tickDue(start time.Time, offset, period time.Duration, k int) time.Time {
	return start.Add(offset + time.Duration(k)*period)
}

// lateness is how late the load generator itself sent a request: the send
// time minus the later of its due time and the moment the vehicle's
// previous request completed. Waiting for a previous, slow reply is the
// service's fault and shows in latency (timed from the due time); only the
// remainder is the generator falling behind.
func lateness(sent, due, prevDone time.Time) time.Duration {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	if sent.Before(ready) {
		return 0
	}
	return sent.Sub(ready)
}

// exchangeOK decides whether one decision request succeeded from the HTTP
// statuses of its attempts, in order: a 200 first time, or a 409 "resend
// full" healed by exactly one resend that got a 200. Anything else —
// another status, a second 409, no reply before the give-up deadline —
// is a failure.
func exchangeOK(statuses []int, timedOut bool) bool {
	if timedOut {
		return false
	}
	switch len(statuses) {
	case 1:
		return statuses[0] == http.StatusOK
	case 2:
		return statuses[0] == http.StatusConflict && statuses[1] == http.StatusOK
	default:
		return false
	}
}

// tally accumulates request outcomes. A failed request enters the latency
// distribution as +Inf, so it misses every latency limit.
type tally struct {
	attempted, failed int64
	latMs             []float64
}

func (t *tally) add(ok bool, latMs float64) {
	t.attempted++
	if !ok {
		t.failed++
		latMs = math.Inf(1)
	}
	t.latMs = append(t.latMs, latMs)
}

// errorRate is failed over attempted (0 with nothing attempted).
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digestBytes is the benchmark's digest form: the first 16 hex digits of
// SHA-256.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// digestJSON digests v's JSON encoding. encoding/json writes float64 in
// the shortest form that parses back to the same bits, so equal digests
// mean bit-equal values.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

// digestParams digests the exact bit patterns of every parameter value of
// the given modules, in parameter order.
func digestParams(ms ...nn.Module) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		for _, p := range m.Params() {
			h.Write([]byte(p.Name))
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// encodeResult renders the result line; it refuses non-finite values,
// which JSON cannot carry.
func encodeResult(r result) ([]byte, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", name, m.Value)
		}
	}
	return json.Marshal(r)
}
