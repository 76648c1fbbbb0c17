package main

import (
	"fmt"
	"sort"
	"time"

	"fedmp/internal/core"
)

// perLayer lists the traced run's metrics in report order, each with the
// end-to-end metric and workload it should move. Metrics of a layer a
// workload never reaches read 0 there.
var perLayer = []struct {
	name, unit, better, moves string
}{
	{"nn.train_steps", "count", "lower", "count of TrainStep calls per execution; fixed by the config"},
	{"nn.train_ms_p50", "ms", "lower", "samples_per_s and round_ms_p50 on sim-alexnet (no im2col on sim-lstm-pop)"},
	{"nn.train_busy_share", "ratio", "lower", "samples_per_s and round_ms_p50 on sim-alexnet"},
	{"nn.eval_ms_per_round", "ms", "lower", "round_ms_p50 on sim-alexnet and sim-lstm-pop; sharding eval saves up to about half"},
	{"nn.eval_share", "ratio", "lower", "round_ms_p50 on sim-alexnet and sim-lstm-pop"},
	{"zoo.build_calls", "count", "lower", "samples_per_s on sim-alexnet"},
	{"zoo.build_ms_p50", "ms", "lower", "samples_per_s on sim-alexnet"},
	{"data.samples", "count", "lower", "nothing: samples drawn per execution, fixed by the config"},
	{"data.next_us_p50", "us", "lower", "nothing on any workload"},
	{"prune.plan_calls", "count", "lower", "round_ms_p50 on sim-alexnet"},
	{"prune.plan_ms_p50", "ms", "lower", "round_ms_p50 on sim-alexnet"},
	{"prune.recover_ms_p50", "ms", "lower", "round_ms_p50 on sim-alexnet"},
	{"prune.sparse_ms_p50", "ms", "lower", "round_ms_p50 on sim-alexnet"},
	{"prune.mean_ratio", "ratio", "higher", "time_to_target_s; must stay fixed unless the policy changes"},
	{"bandit.decision_ms_per_round", "ms", "lower", "round_ms_p50 on sim-alexnet and sim-lstm-pop"},
	{"core.train_phase_ms_per_round", "ms", "lower", "round_ms_p50 on sim-alexnet and sim-lstm-pop"},
	{"core.cohort_parallelism", "ratio", "higher", "round_ms_p50 on sim-alexnet and sim-lstm-pop (at most GOMAXPROCS)"},
	{"core.self_ms_per_round", "ms", "lower", "round_ms_p50 on sim-alexnet and sim-lstm-pop"},
	{"runtime.alloc_mb_per_round", "MB", "lower", "samples_per_s on every workload"},
	{"runtime.gc_pause_ms_per_round", "ms", "lower", "samples_per_s on every workload"},
	{"simsched.events_per_round", "count", "lower", "time_to_target_s on sim-lstm-pop"},
	{"cluster.participants_per_round", "count", "higher", "time_to_target_s on sim-lstm-pop"},
	{"cluster.dropped_ratio", "ratio", "lower", "time_to_target_s on sim-lstm-pop"},
	{"codec.down_bytes_per_round", "bytes", "lower", "bytes_per_round on every workload"},
	{"codec.up_bytes_per_round", "bytes", "lower", "bytes_per_round on every workload"},
	{"transport.ps_turnaround_ms_p50", "ms", "lower", "round_ms_p50 and round_ms_p90 on tcp-cnn-2w"},
	{"transport.ps_self_ms_p50", "ms", "lower", "round_ms_p50 and round_ms_p90 on tcp-cnn-2w"},
	{"transport.dropped", "count", "lower", "round_ms_p90 on tcp-cnn-2w"},
	{"transport.suspect", "count", "lower", "round_ms_p90 on tcp-cnn-2w"},
	{"checkpoint.dir_bytes", "bytes", "lower", "nothing end-to-end; write cost sits in transport.ps_self_ms_p50"},
	{"checkpoint.recover_ms", "ms", "lower", "nothing end-to-end today"},
	{"tensor.im2col_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"tensor.col2im_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"tensor.packA_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"tensor.packB_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"tensor.microkernel_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"tensor.gemmDirect_share", "ratio", "lower", "samples_per_s on sim-alexnet"},
	{"quality.time_to_target_s", "s", "lower", "the paper's headline, unbounded because seeds spread it widely: Result.Points time " +
		"(virtual s in the simulator, wall s on tcp-cnn-2w) of the first evaluation meeting the target, median over sub-seeds"},
	{"trace.overhead_share", "ratio", "lower", "nothing: traced minus untraced wall per round, over untraced"},
}

// tracedExec is one traced execution with the memory counters read
// around it.
type tracedExec struct {
	ex         *execution
	rec        *recorder
	allocBytes uint64
	gcPause    time.Duration
}

// layerMetrics computes the per-layer metrics over the traced executions
// and checks, for every round, that self time plus the union of child
// spans equals the round interval.
func (w *workload) layerMetrics(traced []tracedExec) (map[string]float64, []string) {
	m := map[string]float64{}
	var bad []string
	n := float64(len(traced))
	durs := map[string][]float64{}
	var rounds, postSetup, trainBusy, evalBusy, phaseSum, phaseTrain, selfSum float64
	var roundCount int
	var turnaround, psSelf []float64
	for _, t := range traced {
		ex, rec := t.ex, t.rec
		setup, b := w.bounds(ex, rec)
		ivs := make([]interval, 0, len(b))
		for i := 1; i < len(b); i++ {
			ivs = append(ivs, interval{b[i-1], b[i]})
		}
		children := make([][]interval, len(ivs))
		// The train phase of a round runs from its first worker BuildNet to
		// its last TrainStep end.
		phaseStart := make([]time.Duration, len(ivs))
		phaseEnd := make([]time.Duration, len(ivs))
		phaseBusy := make([]time.Duration, len(ivs))
		for k := range phaseStart {
			phaseStart[k] = ivs[k].end
		}
		for _, s := range rec.spans {
			if s.iv.start < setup {
				continue
			}
			durs[s.name] = append(durs[s.name], ms(s.iv.dur()))
			switch s.name {
			case spanTrain:
				trainBusy += ms(s.iv.dur())
			case spanEval:
				evalBusy += ms(s.iv.dur())
			}
			k := roundOf(ivs, s.iv.start)
			if k < 0 {
				continue
			}
			children[k] = append(children[k], s.iv)
			switch {
			case s.name == spanBuild && s.worker >= 0 && s.iv.start < phaseStart[k]:
				phaseStart[k] = s.iv.start
			case s.name == spanTrain:
				phaseBusy[k] += s.iv.dur()
				if s.iv.end > phaseEnd[k] {
					phaseEnd[k] = s.iv.end
				}
			}
		}
		for k, iv := range ivs {
			u := union(children[k], iv)
			self := selfTime(iv, children[k])
			if self+u != iv.dur() {
				bad = append(bad, fmt.Sprintf("round %d: self %v + union %v != interval %v", k+1, self, u, iv.dur()))
			}
			selfSum += ms(self)
			if phaseEnd[k] > phaseStart[k] {
				phaseSum += ms(phaseEnd[k] - phaseStart[k])
				phaseTrain += ms(phaseBusy[k])
			}
		}
		roundCount += len(ivs)
		postSetup += ms(ex.end - setup)
		rounds += float64(ex.res.Rounds)
		m["runtime.alloc_mb_per_round"] += float64(t.allocBytes) / 1e6 / float64(ex.res.Rounds) / n
		m["runtime.gc_pause_ms_per_round"] += ms(t.gcPause) / float64(ex.res.Rounds) / n
		m["data.samples"] += float64(rec.samples.Load()) / n
		st := statTotals(ex.res)
		m["prune.mean_ratio"] += st.ratioSum / float64(max(st.participants, 1)) / n
		m["bandit.decision_ms_per_round"] += st.decisionMs / float64(ex.res.Rounds) / n
		m["simsched.events_per_round"] += float64(ex.res.Events) / float64(ex.res.Rounds) / n
		m["cluster.participants_per_round"] += float64(st.participants) / float64(ex.res.Rounds) / n
		m["cluster.dropped_ratio"] += float64(st.dropped) / float64(max(st.participants+st.dropped, 1)) / n
		m["codec.down_bytes_per_round"] += float64(st.down) / float64(ex.res.Rounds) / n
		m["codec.up_bytes_per_round"] += float64(st.up) / float64(ex.res.Rounds) / n
		if w.wire {
			ta, self := psTurnaround(rec)
			turnaround = append(turnaround, ta...)
			psSelf = append(psSelf, self...)
			m["transport.dropped"] += float64(st.dropped) / n
			m["transport.suspect"] += float64(st.suspect) / n
		}
		if c := ex.ckpt; c != nil {
			m["checkpoint.dir_bytes"] += float64(c.dirBytes) / n
			m["checkpoint.recover_ms"] += c.recoverMs / n
		}
	}
	m["nn.train_steps"] = float64(len(durs[spanTrain])) / n
	m["nn.train_ms_p50"] = median(durs[spanTrain])
	m["nn.train_busy_share"] = trainBusy / postSetup
	m["nn.eval_ms_per_round"] = evalBusy / rounds
	m["nn.eval_share"] = evalBusy / postSetup
	m["zoo.build_calls"] = float64(len(durs[spanBuild])) / n
	m["zoo.build_ms_p50"] = median(durs[spanBuild])
	m["data.next_us_p50"] = median(durs[spanNext]) * 1000
	m["prune.plan_calls"] = float64(len(durs[spanPlan])) / n
	m["prune.plan_ms_p50"] = median(durs[spanPlan])
	m["prune.recover_ms_p50"] = median(durs[spanRecover])
	m["prune.sparse_ms_p50"] = median(durs[spanSparse])
	if roundCount > 0 {
		m["core.train_phase_ms_per_round"] = phaseSum / float64(roundCount)
		m["core.self_ms_per_round"] = selfSum / float64(roundCount)
	}
	if phaseSum > 0 {
		m["core.cohort_parallelism"] = phaseTrain / phaseSum
	}
	m["transport.ps_turnaround_ms_p50"] = median(turnaround)
	m["transport.ps_self_ms_p50"] = median(psSelf)
	return m, bad
}

// roundOf returns the index of the round interval holding t, or -1.
func roundOf(ivs []interval, t time.Duration) int {
	k := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > t })
	if k < len(ivs) && ivs[k].start <= t {
		return k
	}
	return -1
}

// psTurnaround measures, per wire worker and round, the time from the
// worker's last TrainStep end to its next assignment arrival, and that
// turnaround minus the parameter server's plan, recover, sparse, build and
// eval spans inside it: wire, the server's round loop and checkpoint fsyncs.
func psTurnaround(rec *recorder) (turnaround, self []float64) {
	var ps []interval
	lastTrain := map[int][]time.Duration{}
	for _, s := range rec.spans {
		switch {
		case s.worker == psWorker && s.name != spanNext && s.name != spanSources:
			ps = append(ps, s.iv)
		case s.name == spanTrain:
			lastTrain[s.worker] = append(lastTrain[s.worker], s.iv.end)
		}
	}
	for worker, arrivals := range rec.builds {
		ends := lastTrain[worker]
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		for k := 1; k < len(arrivals); k++ {
			// The last train end before this arrival.
			j := sort.Search(len(ends), func(i int) bool { return ends[i] >= arrivals[k] }) - 1
			if j < 0 || ends[j] < arrivals[k-1] {
				continue
			}
			iv := interval{ends[j], arrivals[k]}
			turnaround = append(turnaround, ms(iv.dur()))
			self = append(self, ms(selfTime(iv, ps)))
		}
	}
	return turnaround, self
}

// totals sums a result's per-round statistics.
type totals struct {
	participants, dropped, suspect int
	down, up                       int64
	ratioSum, decisionMs           float64
}

func statTotals(res *core.Result) totals {
	var t totals
	for _, s := range res.Stats {
		t.participants += s.Participants
		t.dropped += s.Dropped
		t.suspect += s.Suspect
		t.down += s.DownBytes
		t.up += s.UpBytes
		t.decisionMs += s.DecisionSeconds * 1000
		for _, r := range s.Ratios {
			t.ratioSum += r
		}
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
