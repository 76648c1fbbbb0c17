package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"fedmp/internal/cluster"
	"fedmp/internal/nn"
	"fedmp/internal/simsched"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// runner holds the state of one simulation run.
type runner struct {
	cfg      Config
	fam      Family
	strategy Strategy
	devices  []*cluster.Device
	sources  []Source
	eval     *Evaluator
	rng      *rand.Rand
	injector *cluster.Injector

	// sched is the event-driven virtual-time core: worker completions,
	// round closes, eval ticks and churn transitions all pass through it.
	sched *simsched.Scheduler

	// Population mode (cfg.Population != nil): pop is the lazy device
	// universe, cohortRng draws each round's sample, cohortIDs/cohortDevs
	// map cohort slots to sampled devices, devCache keeps materialised
	// devices so jitter state persists when a device is re-sampled, and
	// regionDown is the event-driven regional outage state.
	pop        *cluster.Population
	cohortRng  *rand.Rand
	cohortIDs  []int
	cohortDevs []*cluster.Device
	devCache   map[int]*cluster.Device
	regionDown []bool
	nextWindow int64

	global    []*tensor.Tensor
	now       float64
	prevLoss  float64
	prevTimes []float64
	prevComm  []float64
	roundSum  float64
	roundCnt  int

	// infoTimes/infoComm are the double-buffered RoundInfo snapshots:
	// strategies may read the slices only during the round they were built
	// for, so two buffers (dispatch and aggregate can hold one each in the
	// async engine) alternate without per-round allocation.
	infoTimes [2][]float64
	infoComm  [2][]float64
	infoFlip  int
	// timesScratch backs the deadline quantile selection.
	timesScratch []float64

	// stream receives per-round/per-eval observations instead of the
	// Stats/Points appends when cfg.StreamMetrics is set.
	stream *StreamStats

	// pendingDecision/pendingPrune carry async dispatch overhead into the
	// next completed round's stats.
	pendingDecision, pendingPrune float64

	res *Result
}

// newRunner validates cfg and builds the engine: strategy, data sources,
// device scenario or population and the freshly initialised global model.
// The normalized config is returned alongside so callers branch on
// defaults, not raw input.
func newRunner(fam Family, cfg Config) (*runner, Config, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, cfg, err
	}
	if cfg.FailureRate > 0 && !cfg.FaultTolerance {
		return nil, cfg, fmt.Errorf("core: failure injection requires fault tolerance")
	}
	var devices []*cluster.Device
	if cfg.Population == nil {
		scenario := cfg.Scenario
		if scenario == nil {
			scenario = cluster.Default(cfg.Workers, cfg.Seed+7)
		}
		if scenario.N() != cfg.Workers {
			return nil, cfg, fmt.Errorf("core: scenario has %d devices for %d workers", scenario.N(), cfg.Workers)
		}
		devices = scenario.Devices
	}
	strategy, err := NewStrategy(fam, &cfg)
	if err != nil {
		return nil, cfg, err
	}
	sources, err := fam.Sources(cfg.Workers, cfg.NonIID, cfg.BatchSize, cfg.Seed+17)
	if err != nil {
		return nil, cfg, err
	}
	eval, err := NewEvaluator(fam, cfg.Seed, fam.TestBatch(cfg.EvalLimit))
	if err != nil {
		return nil, cfg, err
	}
	r := &runner{
		cfg:       cfg,
		fam:       fam,
		strategy:  strategy,
		devices:   devices,
		sources:   sources,
		eval:      eval,
		rng:       rand.New(rand.NewSource(cfg.Seed + 29)),
		sched:     simsched.New(4*cfg.Workers + 8),
		global:    fam.InitWeights(cfg.Seed),
		prevLoss:  math.NaN(),
		prevTimes: make([]float64, cfg.Workers),
		prevComm:  make([]float64, cfg.Workers),
		res: &Result{
			Config:           cfg,
			TimeToTargetAcc:  math.Inf(1),
			TimeToTargetLoss: math.Inf(1),
		},
	}
	for b := range r.infoTimes {
		r.infoTimes[b] = make([]float64, cfg.Workers)
		r.infoComm[b] = make([]float64, cfg.Workers)
	}
	if cfg.Population != nil {
		r.pop = cfg.Population
		r.cohortRng = cfg.Population.Rand(0)
		r.cohortIDs = make([]int, 0, cfg.Workers)
		r.cohortDevs = make([]*cluster.Device, 0, cfg.Workers)
		r.devCache = make(map[int]*cluster.Device)
		if cfg.Population.Outage.Enabled() {
			r.regionDown = make([]bool, cfg.Population.Outage.Regions)
		}
	}
	if cfg.StreamMetrics {
		r.stream = newStreamStats()
		r.res.Stream = r.stream
	}
	if cfg.Faults.Enabled() {
		r.injector = cluster.NewInjector(cfg.Faults, cfg.Workers)
	}
	return r, cfg, nil
}

// Run executes one federated simulation and returns its result. Local SGD
// is executed for real on the family's data; completion times are virtual,
// charged by the cluster model.
func Run(fam Family, cfg Config) (*Result, error) {
	r, normCfg, err := newRunner(fam, cfg)
	if err != nil {
		return nil, err
	}
	r.evaluate(0)
	if normCfg.Async {
		err = r.runAsync()
	} else {
		err = r.runSync(1)
	}
	return r.finish(err)
}

// allWorkers returns [0..n).
func (r *runner) allWorkers() []int {
	out := make([]int, r.cfg.Workers)
	for i := range out {
		out[i] = i
	}
	return out
}

// runSync executes synchronous rounds (Fig. 1) starting at round start
// (1 for a fresh run, snapshot round + 1 when resuming). Each round: drain
// due churn events, select the round's workers (the fixed set, or a
// sampled cohort in population mode), train the cohort in parallel, then
// close the round through the event scheduler — completions and the
// fault-tolerance deadline are heap events popped in virtual-time order.
// With fault injection enabled, devices recovering from an earlier crash
// are skipped up front (suspect, mirroring the wire runtime's suspect
// state) while devices hit mid-round lose their assignment (dropped).
func (r *runner) runSync(start int) error {
	r.sched.Advance(r.now)
	for round := start; ; round++ {
		r.drainDue()
		var faults []cluster.Fault
		if r.injector != nil {
			faults = r.injector.Advance(round)
		}
		available, suspect := r.roundWorkers(faults)
		info := r.roundInfo(round)
		var outs []Output
		failed := make([]Assignment, 0)
		if len(available) > 0 {
			assignments, err := r.strategy.Assign(info, available)
			if err != nil {
				return err
			}
			// Fault and failure filtering stays serial: the engine RNG's
			// draw order is part of the trajectory.
			runnable := make([]Assignment, 0, len(assignments))
			for _, a := range assignments {
				if faults != nil && faults[a.Worker].Down {
					failed = append(failed, a)
					continue
				}
				if r.cfg.FailureRate > 0 && r.rng.Float64() < r.cfg.FailureRate {
					failed = append(failed, a)
					continue
				}
				runnable = append(runnable, a)
			}
			outs, err = r.trainCohort(runnable, round)
			if err != nil {
				return err
			}
			if faults != nil {
				for i := range outs {
					if f := faults[outs[i].Worker]; f.Slowdown > 1 {
						outs[i].CompTime *= f.Slowdown
						outs[i].Total = outs[i].CompTime + outs[i].CommTime
					}
				}
			}
		}
		participants, late, roundTime := r.closeRound(round, outs, len(failed) > 0)
		dropped := append(failed, late...)
		if len(participants) == 0 && roundTime == 0 {
			// Nobody ran (everyone down, recovering or unavailable): the PS
			// idles for a mean round before trying again.
			roundTime = math.Max(info.MeanRoundTime, 1)
		}

		newGlobal, err := r.strategy.Aggregate(info, participants, dropped)
		if err != nil {
			return err
		}
		r.global = newGlobal
		r.finishRound(round, info, participants, dropped, suspect, roundTime)

		if stop, err := r.evalAndCheck(round); err != nil {
			return err
		} else if stop {
			return nil
		}
		if r.stopByBudget(round) {
			return nil
		}
	}
}

// availableWorkers filters out devices still recovering from an injected
// crash, returning the assignable workers and the skipped (suspect) count.
func (r *runner) availableWorkers(faults []cluster.Fault) (available []int, suspect int) {
	if faults == nil {
		return r.allWorkers(), 0
	}
	for _, w := range r.allWorkers() {
		if faults[w].Down && !faults[w].Fresh {
			suspect++
			continue
		}
		available = append(available, w)
	}
	return available, suspect
}

// deviceFor resolves a worker slot to its device: the fixed scenario
// device, or the cohort member sampled into the slot this round.
func (r *runner) deviceFor(w int) *cluster.Device {
	if r.pop != nil {
		return r.cohortDevs[w]
	}
	return r.devices[w]
}

// roundInfo snapshots the server view for the strategy. The PrevTimes and
// PrevCommTimes slices alternate between two runner-owned buffers —
// strategies may read them only until the next-next roundInfo call (the
// async engine keeps a dispatch info and an aggregate info alive at once,
// hence two buffers rather than one), so no per-round copies are
// allocated.
func (r *runner) roundInfo(round int) *RoundInfo {
	mean := 0.0
	if r.roundCnt > 0 {
		mean = r.roundSum / float64(r.roundCnt)
	}
	b := r.infoFlip & 1
	r.infoFlip++
	copy(r.infoTimes[b], r.prevTimes)
	copy(r.infoComm[b], r.prevComm)
	return &RoundInfo{
		Round:         round,
		Global:        r.global,
		PrevLoss:      r.prevLoss,
		PrevTimes:     r.infoTimes[b],
		PrevCommTimes: r.infoComm[b],
		MeanRoundTime: mean,
	}
}

// finishRound updates clocks and records per-round statistics — appended
// RoundStats by default, folded into the streaming aggregate under
// StreamMetrics. suspect counts workers skipped up front this round
// (recovering from an injected crash).
func (r *runner) finishRound(round int, info *RoundInfo, outs []Output, dropped []Assignment, suspect int, roundTime float64) {
	r.now += roundTime
	r.sched.Advance(r.now)
	r.roundSum += roundTime
	r.roundCnt++
	r.res.Rounds = round

	var comp, comm float64
	var down, up int64
	for _, o := range outs {
		comp += o.CompTime
		comm += o.CommTime
		down += o.DownBytes
		up += o.UpBytes
		r.prevTimes[o.Worker] = o.Total
		r.prevComm[o.Worker] = o.CommTime
	}
	if len(outs) > 0 {
		comp /= float64(len(outs))
		comm /= float64(len(outs))
		r.prevLoss = meanTrainLoss(outs)
	}
	if r.stream != nil {
		r.stream.observeRound(roundTime, comp, comm, down, up, len(outs), len(dropped), suspect)
		return
	}
	stat := RoundStat{
		Round:           round,
		Time:            roundTime,
		CompTime:        comp,
		CommTime:        comm,
		DownBytes:       down,
		UpBytes:         up,
		DecisionSeconds: info.DecisionSeconds,
		PruneSeconds:    info.PruneSeconds,
		Participants:    len(outs),
		Dropped:         len(dropped),
		Suspect:         suspect,
		Ratios:          make([]float64, r.cfg.Workers),
	}
	for _, o := range outs {
		stat.Ratios[o.Worker] = o.Ratio
	}
	r.res.Stats = append(r.res.Stats, stat)
}

// evalAndCheck evaluates on schedule and reports whether a quality target
// was met. In the synchronous engine the evaluation is itself a scheduler
// event: pushed at the round's close time and popped through the heap, so
// any churn that came due during the round is dispatched first, in
// virtual-time order. The async engine evaluates directly — its heap holds
// live in-flight completions that must stay queued for later rounds.
func (r *runner) evalAndCheck(round int) (bool, error) {
	if round%r.cfg.EvalEvery != 0 {
		return false, nil
	}
	if !r.cfg.Async {
		r.sched.Push(r.now, simsched.KindEval, int64(round))
		for {
			ev, ok := r.sched.Pop()
			if !ok {
				break
			}
			if ev.Kind == simsched.KindEval {
				break
			}
			r.dispatchEvent(ev)
		}
	}
	p := r.evaluate(round)
	if r.cfg.TargetAccuracy > 0 && p.Acc >= r.cfg.TargetAccuracy {
		if math.IsInf(r.res.TimeToTargetAcc, 1) {
			r.res.TimeToTargetAcc = r.now
		}
		return true, nil
	}
	if r.cfg.TargetLoss > 0 && p.Loss <= r.cfg.TargetLoss {
		if math.IsInf(r.res.TimeToTargetLoss, 1) {
			r.res.TimeToTargetLoss = r.now
		}
		return true, nil
	}
	return false, nil
}

// stopByBudget reports whether the round or time caps are exhausted.
func (r *runner) stopByBudget(round int) bool {
	if r.cfg.Rounds > 0 && round >= r.cfg.Rounds {
		return true
	}
	if r.cfg.TimeBudget > 0 && r.now >= r.cfg.TimeBudget {
		return true
	}
	return false
}

// evaluate measures the global model on the test batch and records a Point
// (or the streaming aggregate under StreamMetrics).
func (r *runner) evaluate(round int) Point {
	loss, acc := r.eval.Eval(r.global)
	p := Point{Round: round, Time: r.now, Loss: loss, Acc: acc}
	if r.stream != nil {
		r.stream.observeEval(round, r.now, loss, acc)
	} else {
		r.res.Points = append(r.res.Points, p)
	}
	// Track first-crossing times even when the run continues for other
	// reasons (e.g. time-budget sweeps reading the trajectory).
	if r.cfg.TargetAccuracy > 0 && acc >= r.cfg.TargetAccuracy && math.IsInf(r.res.TimeToTargetAcc, 1) {
		r.res.TimeToTargetAcc = r.now
	}
	if r.cfg.TargetLoss > 0 && loss <= r.cfg.TargetLoss && math.IsInf(r.res.TimeToTargetLoss, 1) {
		r.res.TimeToTargetLoss = r.now
	}
	return p
}

// runWorker executes one assignment: local training for real, virtual time
// charged per the device model (phase ② of Fig. 1). round is the wire
// round index, threaded through so the size model prices exactly the frame
// the TCP runtime would send. It touches only per-assignment state — the
// worker's own source, device and freshly built model — which is what lets
// trainCohort shard calls across goroutines without changing a byte of the
// result.
func (r *runner) runWorker(a Assignment, round int) (Output, error) {
	dev := r.deviceFor(a.Worker)
	net, err := r.fam.BuildNet(a.Desc, r.cfg.Seed)
	if err != nil {
		return Output{}, fmt.Errorf("core: building worker %d model: %w", a.Worker, err)
	}
	// With wire quantization on, the TCP worker trains on the codec's
	// dequantized reconstruction of the assignment, not the weights the
	// server holds; mirror that single round trip here so both runtimes
	// optimise from bit-identical starting points.
	aw := a.Weights
	if r.cfg.QuantizeWire {
		aw = codec.Dequantized(a.Weights)
	}
	nn.SetWeights(net, aw)
	opt := nn.NewSGD(r.cfg.LR, r.cfg.Momentum, r.cfg.WeightDecay)
	var lossSum float64
	for it := 0; it < a.Iters; it++ {
		b := r.sources[a.Worker].Next()
		loss, _ := net.TrainStep(b)
		if a.ProxMu > 0 {
			nn.AddProximal(net.Params(), aw, a.ProxMu)
		}
		opt.Step(net.Params())
		lossSum += loss
	}
	newW := nn.GetWeights(net)

	fwd, err := r.fam.ForwardFLOPs(a.Desc)
	if err != nil {
		return Output{}, err
	}
	flops := 3 * fwd * float64(a.Iters*r.cfg.BatchSize)
	comp := dev.ComputeTime(flops)

	// Traffic is priced by the wire codec's size model — the exact frame
	// sizes the TCP runtime would measure for this assignment and its
	// result — so Figs. 5 and 9 report real encoded bytes, sparse-mode
	// compression included, not a parameter-count estimate.
	down, err := codec.FrameBytes(&codec.Envelope{Kind: codec.KindAssign, Quantize: r.cfg.QuantizeWire, Assign: &codec.Assign{
		Round:    round,
		Desc:     a.Desc,
		Weights:  a.Weights,
		Iters:    a.Iters,
		ProxMu:   a.ProxMu,
		UploadK:  a.UploadK,
		Ratio:    a.Ratio,
		Quantize: r.cfg.QuantizeWire,
	}})
	if err != nil {
		return Output{}, fmt.Errorf("core: sizing worker %d assignment: %w", a.Worker, err)
	}
	out := Output{
		Assignment: a,
		TrainLoss:  lossSum / float64(a.Iters),
		CompTime:   comp,
		DownBytes:  down,
	}
	result := &codec.Result{Round: round, TrainLoss: out.TrainLoss}
	if a.UploadK > 0 {
		// Error feedback: unsent deltas from previous rounds re-enter the
		// selection, the standard fix for top-K compression stalls.
		delta := nn.CloneWeights(newW)
		for i := range delta {
			delta[i].Sub(aw[i])
			if a.Feedback != nil {
				delta[i].Add(a.Feedback[i])
			}
		}
		update, _ := topKOf(delta, a.UploadK)
		result.Update = update
		// The server aggregates what the wire delivers; with quantization on
		// that is the int8 reconstruction of the update, and the leftover the
		// worker carries forward compensates the quantization error too.
		sent := update
		if r.cfg.QuantizeWire {
			sent = codec.Dequantized(update)
		}
		out.Update = sent
		leftover := delta
		for i := range leftover {
			leftover[i].Sub(sent[i])
		}
		out.Leftover = leftover
	} else {
		// The wire runtime uploads only the trained-minus-assigned delta
		// (the server reconstructs); price the same message here.
		delta := nn.CloneWeights(newW)
		for i := range delta {
			delta[i].Sub(aw[i])
		}
		result.Delta = delta
		if r.cfg.QuantizeWire {
			// Mirror the server-side reconstruction: the weights the strategy
			// kept plus the delta as it survives the quantized upload.
			nw := nn.CloneWeights(a.Weights)
			for i, d := range codec.Dequantized(delta) {
				nw[i].Add(d)
			}
			out.NewWeights = nw
		} else {
			out.NewWeights = newW
		}
	}
	up, err := codec.FrameBytes(&codec.Envelope{Kind: codec.KindResult, Quantize: r.cfg.QuantizeWire, Result: result})
	if err != nil {
		return Output{}, fmt.Errorf("core: sizing worker %d result: %w", a.Worker, err)
	}
	out.UpBytes = up
	out.CommTime = dev.CommTime(out.DownBytes + out.UpBytes)
	out.Total = out.CompTime + out.CommTime
	return out, nil
}

// TopKUpdate computes the sparse FlexCom update like topKUpdate but returns
// only the tensors; the network transport uses it on the worker side.
func TopKUpdate(before, after []*tensor.Tensor, k float64) []*tensor.Tensor {
	update, _ := topKUpdate(before, after, k)
	return update
}

// topKUpdate computes the model delta and keeps only the top fraction k of
// coordinates by magnitude (across the whole model), returning the sparse
// update in dense form plus the kept-coordinate count.
func topKUpdate(before, after []*tensor.Tensor, k float64) ([]*tensor.Tensor, int) {
	deltas := make([]*tensor.Tensor, len(before))
	for i := range before {
		d := after[i].Clone()
		d.Sub(before[i])
		deltas[i] = d
	}
	return topKOf(deltas, k)
}

// magPool recycles the magnitude scratch topKOf ranks in — one buffer per
// concurrently selecting worker, each grown once to its largest tensor.
var magPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 1024)
	return &s
}}

// topKOf keeps the top fraction k of each tensor's coordinates by
// magnitude (layer-wise selection, the form practical compression systems
// use — a global pool lets the largest dense layer starve the convolution
// updates), returning the sparse result in dense form plus the total kept
// count. deltas is not modified. The magnitude threshold comes from an
// O(n) quickselect over a pooled scratch buffer rather than a full sort;
// selectKth returns exactly the value a sort would place at the cut index,
// so the masks are byte-identical to the sort-based selection.
func topKOf(deltas []*tensor.Tensor, k float64) ([]*tensor.Tensor, int) {
	out := make([]*tensor.Tensor, len(deltas))
	nnz := 0
	sp := magPool.Get().(*[]float64)
	mags := *sp
	for i, src := range deltas {
		d := src.Clone()
		out[i] = d
		total := d.Size()
		keep := int(k * float64(total))
		if keep < 1 {
			keep = 1
		}
		if keep >= total {
			nnz += total
			continue
		}
		if cap(mags) < total {
			mags = make([]float64, 0, total)
		}
		mags = mags[:total]
		for j, v := range d.Data {
			if v < 0 {
				v = -v
			}
			mags[j] = float64(v)
		}
		threshold := selectKth(mags, total-keep)
		kept := 0
		for j, v := range d.Data {
			av := v
			if av < 0 {
				av = -av
			}
			if float64(av) < threshold || (threshold == 0 && v == 0) || kept >= keep {
				d.Data[j] = 0
			} else {
				kept++
			}
		}
		nnz += kept
	}
	*sp = mags[:0]
	magPool.Put(sp)
	return out, nnz
}

// selectKth returns the value that would sit at ascending index k if s
// were fully sorted, partially reordering s in place: iterative Hoare
// quickselect with a median-of-three pivot — deterministic, allocation-
// free, O(n) expected. The deadline quantile and the top-K threshold both
// use it in place of a full sort.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot dodges quadratic behaviour on sorted runs.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
