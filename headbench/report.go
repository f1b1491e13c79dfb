package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLatency returns every open-loop request's latency, timed from its
// due time with failures counting as +Inf, and its latency window.
func openLatency(fl *fleet) (windows []int, latMs []float64) {
	var open tally
	windows = make([]int, len(fl.openEx))
	for i := range fl.openEx {
		ex := &fl.openEx[i]
		open.add(ex.ok, ms(ex.done.Sub(ex.due)))
		windows[i] = ex.window
	}
	return windows, open.latMs
}

// fleetEndToEnd sets the fleet's gated metrics: capacity, the median over
// the capacityWindow windows of the saturation segments of the rate of
// answered requests, and the success rate. It prints the open-loop
// latency beside them: the median over the windows of latencyMinSamples
// scheduled requests of each window's p50 and p99, and the pooled p50 and
// tail. Latency is a traced row rather than a gated metric: on a shared VM
// it follows the hypervisor's scheduling more than the code.
func fleetEndToEnd(rep *report, fl *fleet, all tally) {
	windows, latMs := openLatency(fl)
	p50s := windowQuantiles(windows, latMs, 0.5, latencyMinSamples)
	p99s := windowQuantiles(windows, latMs, 0.99, latencyMinSamples)
	rep.slice("decide_p50_ms", p50s)
	rep.slice("decide_p99_ms", p99s)
	pooled := sortedCopy(latMs)
	fmt.Printf("fleet open loop: %d requests in %d segments, %d windows of %v; pooled p50 %.3f ms",
		len(pooled), fl.segments, len(p99s), fl.latWidth, percentile(pooled, 0.5))
	if q, ok := tailQuantile(len(pooled)); ok {
		fmt.Printf(", p%g %.3f ms (the highest percentile with %d samples beyond it)", 100*q, percentile(pooled, q), minBeyond)
	}
	fmt.Printf("; median window p50 %.3f ms, p99 %.3f ms\n", median(p50s), median(p99s))
	fmt.Printf("fleet saturation: %d requests in %.2fs with %d waiting callers, %d capacity windows\n",
		len(fl.satEx), fl.satTime.Seconds(), satWindow, len(fl.capRates))
	rep.set("capacity_rps", "1/s", median(fl.capRates))
	rep.slice("capacity_rps", fl.capRates)
	rep.set("success_rate", "share", 1-all.errorRate())
}

// fleetLayers computes the fleet's per-layer rows from the response
// envelopes, the session cache counters and the outcome tally of both
// phases, setting them when traced, and returns the generator's p99
// lateness in milliseconds. Latency attribution comes from the open-loop
// segments; batch fill and replica load from the saturation segments,
// where capacity is measured.
func fleetLayers(rep *report, fl *fleet, all tally, traced bool) float64 {
	var queue, seal, reply, unattr, late, bytes []float64
	for i := range fl.openEx {
		ex := &fl.openEx[i]
		late = append(late, ms(ex.late))
		bytes = append(bytes, float64(ex.firstBytes))
		if !ex.ok {
			continue
		}
		r := ex.resp
		queue = append(queue, float64(r.QueueMicros)/1e3)
		seal = append(seal, float64(r.SealMicros)/1e3)
		reply = append(reply, float64(r.ReplyMicros)/1e3)
		server := time.Duration(r.QueueMicros+r.SealMicros+r.InferMicros+r.ReplyMicros) * time.Microsecond
		unattr = append(unattr, ms(ex.handler-server))
	}
	lateP99 := percentile(sortedCopy(late), 0.99)
	if !traced {
		return lateP99
	}
	p := func(v []float64, q float64) float64 { return percentile(sortedCopy(v), q) }
	windows, latMs := openLatency(fl)
	rep.set("decide_p50_ms", "ms", median(windowQuantiles(windows, latMs, 0.5, latencyMinSamples)))
	rep.set("decide_p99_ms", "ms", median(windowQuantiles(windows, latMs, 0.99, latencyMinSamples)))
	rep.set("serve.batcher.queue_p50_ms", "ms", p(queue, 0.5))
	rep.set("serve.batcher.queue_p99_ms", "ms", p(queue, 0.99))
	rep.set("serve.batcher.seal_p99_ms", "ms", p(seal, 0.99))
	rep.set("serve.http.reply_p99_ms", "ms", p(reply, 0.99))
	rep.set("serve.http.unattributed_ms", "ms", p(unattr, 0.5))
	// JSON requests bypass the session cache: both shares are 0 there.
	var hitShare, resyncRate float64
	if n := float64(fl.hits + fl.resyncs); n > 0 {
		hitShare, resyncRate = float64(fl.hits)/n, float64(fl.resyncs)/n
	}
	rep.set("serve.session.hit_share", "share", hitShare)
	rep.set("serve.session.resync_rate", "share", resyncRate)
	rep.set("serve.codec.req_bytes_p50", "bytes", p(bytes, 0.5))
	rep.set("gen.late_p99_ms", "ms", lateP99)

	var batch, full, infer, busy float64
	n := 0
	for i := range fl.satEx {
		ex := &fl.satEx[i]
		if !ex.ok {
			continue
		}
		n++
		r := ex.resp
		batch += float64(r.BatchSize)
		if r.BatchSize >= 8 {
			full++
		}
		infer += float64(r.InferMicros) / 1e3
		busy += float64(r.InferMicros) / 1e6 / float64(r.BatchSize)
	}
	if n > 0 {
		rep.set("serve.batcher.avg_batch", "count", batch/float64(n))
		rep.set("serve.batcher.full_share", "share", full/float64(n))
		rep.set("serve.replica.infer_ms", "ms", infer/float64(n))
		rep.set("serve.replica.busy_share", "share", busy/fl.satTime.Seconds())
	}
	rep.set("error_rate", "share", all.errorRate())
	return lateP99
}

// episodeLayers sets the traced episode rows. The env-step row is what is
// left of the run's wall time per environment step once batched decisions,
// batched predictions and episode set-up are taken out.
func episodeLayers(rep *report, tr *episodeTrace, wallS float64, steps int) {
	rest := time.Duration(wallS*float64(time.Second)) -
		time.Duration(tr.decide.ns.Load()+tr.predict.ns.Load()+tr.setup.ns.Load())
	rep.set("head.env_step_us.eval", "us", float64(rest.Microseconds())/float64(steps))
	rep.set("predict.batch_us", "us", perCallUs(&tr.predict))
	rep.set("rl.decide_us", "us", perCallUs(&tr.decide))
	rep.set("batch.live_rows", "count", float64(tr.decide.rows.Load())/float64(tr.decide.calls.Load()))
}

// trainLayers sets the traced training rows.
func trainLayers(rep *report, tr *trainTrace, passes int) {
	rep.set("predict.train_batch_ms", "ms", perCallUs(&tr.trainBatch)/1e3)
	rep.set("rl.act_us", "us", perCallUs(&tr.act))
	rep.set("rl.observe_us", "us", perCallUs(&tr.observe))
	rep.set("head.env_step_us.train", "us", perCallUs(&tr.envStep))
	rep.set("rl.updates", "count", float64(tr.updates)/float64(passes))
}

func perCallUs(c *stageClock) float64 {
	return float64(c.ns.Load()) / 1e3 / float64(c.calls.Load())
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories such as the build output skipped), path and content, so a
// result names the exact code it measured even outside a git checkout.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
