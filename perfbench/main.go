// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the public entry points (core.Run for the simulator,
// transport.Serve plus transport.RunWorker for the TCP runtime), checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload sim-alexnet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics and keeps only the
// boundary stamps they need. With --trace 1 it follows the untraced
// executions with traced ones, keeps every traced span in memory, writes the
// spans and a layer-labelled CPU profile under .bench_build/trace when it
// ends, and reports the per-layer metrics. The exit status is non-zero when
// a correctness check fails.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/tensor"
)

// buildDir is the checkout-local build and output area (run.sh builds there).
const buildDir = ".bench_build"

// heldOutSeed is reserved for confirming a claimed gain after the change
// is written; never tune a change against it.
const heldOutSeed = 7919

// Run-length limits. Every run executes each of the workload's sub-seeds
// once untraced, then keeps executing (traced, with --trace 1) until the
// measuring time is up and, untraced, at least minRoundSamples round
// intervals are pooled (so p90 has ten samples beyond it). The first
// execution warms the process up and is left out of the timings. No
// execution starts after hardStop, so the process ends well within its
// time limit.
const (
	minRoundSamples = 100
	hardStop        = 120 * time.Second
)

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// endToEnd lists the untraced run's metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"final_acc", "ratio"},
	{"final_ppl", "ppl"},
	{"bytes_per_round", "bytes"},
	{"peak_rss_mb", "MB"},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seed <= 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed > 0, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes the workload repeatedly for the measuring time and reduces
// the executions to the report.
func run(w *workload, seed int64, seconds time.Duration, trace bool) (*resultJSON, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", w.name, seed, seconds.Seconds(), trace)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s fused=%v held-out-seed=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		tensor.KernelName(), tensor.KernelFused(), heldOutSeed)

	var profBuf bytes.Buffer
	if trace {
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			return nil, err
		}
	}
	out := &resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	fail := func(format string, args ...any) {
		out.Correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}

	var untraced []*execution
	var untracedRecs []*recorder
	var traced []tracedExec
	// pairs holds, with --trace 1, the untraced execution run just before
	// each traced one on the same sub-seed, for the tracing overhead.
	var pairs []int
	fingerprints := make([]string, w.subSeeds)
	roundSamples := 0
	start := time.Now()
	for i := 0; ; i++ {
		enough := i >= w.subSeeds && time.Since(start) >= seconds &&
			((trace && len(traced) > 0 && (i-w.subSeeds)%2 == 0) || (!trace && roundSamples >= minRoundSamples))
		if enough || time.Since(start) >= hardStop {
			break
		}
		// After one untraced execution per sub-seed, --trace 1 alternates
		// untraced and traced executions of the same sub-seed.
		k, tracing := i%w.subSeeds, false
		if trace && i >= w.subSeeds {
			k, tracing = (i-w.subSeeds)/2%w.subSeeds, (i-w.subSeeds)%2 == 1
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := newRecorder(tracing)
		ex, err := w.run(w, subSeed(seed, k), rec)
		if err != nil {
			if i < w.subSeeds {
				return nil, fmt.Errorf("execution %d: %w", i+1, err)
			}
			out.Attempted += w.rounds * w.cohort
			out.Failed += w.rounds * w.cohort
			fail("execution %d: %v", i+1, err)
			continue
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		st := statTotals(ex.res)
		out.Attempted += st.participants + st.dropped
		if w.wire {
			out.Failed += st.dropped
		}
		for _, msg := range w.check(ex, rec) {
			fail("execution %d: %s", i+1, msg)
		}
		fp := trajectoryFingerprint(ex.res)
		if i < w.subSeeds {
			fingerprints[k] = fp
		} else if !w.wire && fp != fingerprints[k] {
			// The simulator is deterministic in its seed, traced or not.
			fail("execution %d: trajectory %s differs from execution %d's %s", i+1, fp, k+1, fingerprints[k])
		}
		setup, b := w.bounds(ex, rec)
		ttt, acc, ppl, reached := w.quality(ex.res)
		fmt.Printf("execution %d seed=%d traced=%v: setup %.4f s, %d rounds, wall %.2f s, time_to_target %.1f s (reached %v), acc %.4f, ppl %.3f, trajectory %s\n",
			i+1, subSeed(seed, k), tracing, setup.Seconds(), ex.res.Rounds, ex.end.Seconds(), ttt, reached, acc, ppl, fp)
		if tracing {
			pairs = append(pairs, len(untraced)-1)
			traced = append(traced, tracedExec{ex: ex, rec: rec,
				allocBytes: after.TotalAlloc - before.TotalAlloc,
				gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs)})
			continue
		}
		untraced = append(untraced, ex)
		untracedRecs = append(untracedRecs, rec)
		if i > 0 {
			roundSamples += max(len(b)-1, 0)
		}
	}
	if len(untraced) < w.subSeeds {
		return nil, fmt.Errorf("only %d of %d sub-seed executions finished within %v", len(untraced), w.subSeeds, hardStop)
	}
	fmt.Printf("fingerprint %s seed=%d: %s (per sub-seed sha256 of per-round ratios, bytes and eval losses)\n",
		w.name, seed, strings.Join(fingerprints, ","))
	quality := w.qualityMetrics(untraced[:w.subSeeds])
	fmt.Printf("failed_ratio %d/%d worker-rounds\n", out.Failed, out.Attempted)

	if trace {
		pprof.StopCPUProfile()
		if err := writeTrace(w, seed, traced, profBuf.Bytes()); err != nil {
			return nil, err
		}
		m, bad := w.layerMetrics(traced)
		for _, msg := range bad {
			fail("%s", msg)
		}
		shares, err := layerShares(profBuf.Bytes(), spanTrain)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			m[k] = v
		}
		m["trace.overhead_share"] = overhead(w, untraced, untracedRecs, traced, pairs)
		m["quality.time_to_target_s"] = quality["time_to_target_s"]
		for _, l := range perLayer {
			add(out, fail, l.name, l.unit, m[l.name], l.moves)
		}
		return out, nil
	}

	e2e, err := w.endToEnd(untraced[1:], untracedRecs[1:])
	if err != nil {
		fail("%v", err)
	}
	for k, v := range quality {
		e2e[k] = v
	}
	fmt.Printf("time_to_target %.6g s (median over sub-seeds; reported as quality.time_to_target_s by --trace 1)\n", quality["time_to_target_s"])
	for _, m := range endToEnd {
		add(out, fail, m.name, m.unit, e2e[m.name], "")
	}
	return out, nil
}

// add records one metric and prints it with its unit.
func add(out *resultJSON, fail func(string, ...any), name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fail("metric %s is %v", name, v)
		v = 0
	}
	out.Metrics[name] = metricJSON{Value: v, Unit: unit}
	if note != "" {
		fmt.Printf("metric %-32s %14.6g %-6s moves: %s\n", name, v, unit, note)
		return
	}
	fmt.Printf("metric %-32s %14.6g %s\n", name, v, unit)
}

// endToEnd reduces the untraced executions to the timing metrics: the
// median set-up, samples per second of training wall time, and percentiles
// of the pooled round intervals.
func (w *workload) endToEnd(exs []*execution, recs []*recorder) (map[string]float64, error) {
	m := map[string]float64{}
	var setups, roundMs []float64
	var samples, trainSeconds float64
	for i, ex := range exs {
		setup, b := w.bounds(ex, recs[i])
		setups = append(setups, setup.Seconds())
		for k := 1; k < len(b); k++ {
			roundMs = append(roundMs, ms(b[k]-b[k-1]))
		}
		samples += float64(recs[i].samples.Load())
		trainSeconds += (ex.end - setup).Seconds()
	}
	m["setup_s"] = median(setups)
	m["samples_per_s"] = samples / trainSeconds
	m["round_ms_p50"] = median(roundMs)
	p90, err := tailPercentile(roundMs, 0.9)
	m["round_ms_p90"] = p90
	m["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("set-up samples: %d, round intervals: %d\n", len(setups), len(roundMs))
	return m, err
}

// qualityMetrics takes the median, over one execution of each sub-seed,
// of the time-to-target, the final accuracy and perplexity, and the
// traffic per round. A median because a seed now and then has barely begun
// to learn when the run ends.
func (w *workload) qualityMetrics(exs []*execution) map[string]float64 {
	var ttts, accs, ppls, bytes []float64
	for _, ex := range exs {
		ttt, acc, ppl, _ := w.quality(ex.res)
		st := statTotals(ex.res)
		ttts, accs, ppls = append(ttts, ttt), append(accs, acc), append(ppls, ppl)
		bytes = append(bytes, float64(st.down+st.up)/float64(ex.res.Rounds))
	}
	return map[string]float64{
		"time_to_target_s": median(ttts),
		"final_acc":        median(accs),
		"final_ppl":        median(ppls),
		"bytes_per_round":  median(bytes),
	}
}

// overhead is the mean, over the traced executions, of their post-set-up
// wall time per round over that of the untraced execution paired with them
// (same sub-seed, run just before), minus one.
func overhead(w *workload, untraced []*execution, recs []*recorder, traced []tracedExec, pairs []int) float64 {
	perRound := func(ex *execution, rec *recorder) float64 {
		setup, _ := w.bounds(ex, rec)
		return (ex.end - setup).Seconds() / float64(ex.res.Rounds)
	}
	var sum float64
	for j, te := range traced {
		u := pairs[j]
		sum += perRound(te.ex, te.rec)/perRound(untraced[u], recs[u]) - 1
	}
	return sum / float64(len(traced))
}

// trajectoryFingerprint hashes the per-round pruning ratios and traffic and
// the evaluation losses: equal fingerprints mean the run's arithmetic was
// left unchanged.
func trajectoryFingerprint(res *core.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range res.Stats {
		for _, r := range s.Ratios {
			put(math.Float64bits(r))
		}
		put(uint64(s.DownBytes))
		put(uint64(s.UpBytes))
	}
	for _, p := range res.Points {
		put(math.Float64bits(p.Loss))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// writeTrace writes the traced executions' spans, one JSON object a line,
// and the CPU profile under .bench_build/trace.
func writeTrace(w *workload, seed int64, traced []tracedExec, prof []byte) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	type spanJSON struct {
		Exec    int     `json:"exec"`
		Name    string  `json:"name"`
		StartMs float64 `json:"start_ms"`
		EndMs   float64 `json:"end_ms"`
		Parent  string  `json:"parent"`
		Round   int     `json:"round"`
		Worker  int     `json:"worker"`
	}
	for i, t := range traced {
		setup, b := w.bounds(t.ex, t.rec)
		ivs := []interval{{0, setup}}
		for k := 1; k < len(b); k++ {
			ivs = append(ivs, interval{b[k-1], b[k]})
		}
		for k, iv := range ivs {
			if err := enc.Encode(spanJSON{Exec: i, Name: spanRound, StartMs: ms(iv.start), EndMs: ms(iv.end), Parent: "exec", Round: k, Worker: psWorker}); err != nil {
				return err
			}
		}
		for _, s := range t.rec.spans {
			round := roundOf(ivs, s.iv.start)
			if err := enc.Encode(spanJSON{Exec: i, Name: s.name, StartMs: ms(s.iv.start), EndMs: ms(s.iv.end),
				Parent: fmt.Sprintf("round/%d", round), Round: round, Worker: s.worker}); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(base+".spans.jsonl", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %s.spans.jsonl, %s.cpu.pprof\n", base, base)
	return nil
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
