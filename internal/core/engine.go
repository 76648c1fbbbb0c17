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

	// led is the round ledger; its clock reads now, the virtual time.
	led *Ledger
	now float64
	// timesScratch backs the deadline quantile selection.
	timesScratch []float64

	// pendingDecision/pendingPrune carry async dispatch overhead into the
	// next completed round's stats.
	pendingDecision, pendingPrune float64
}

// newRunner validates cfg and builds the engine: strategy, data sources,
// device scenario or population and the round ledger.
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
	r := &runner{
		cfg:      cfg,
		fam:      fam,
		strategy: strategy,
		devices:  devices,
		sources:  sources,
		rng:      rand.New(rand.NewSource(cfg.Seed + 29)),
		sched:    simsched.New(4*cfg.Workers + 8),
	}
	r.led, err = NewLedger(fam, cfg, strategy, func() float64 { return r.now })
	if err != nil {
		return nil, cfg, err
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
	r.led.Evaluate(0)
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
		info := r.led.Info(round)
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

		r.advance(roundTime)
		if err := r.led.Close(round, info, participants, dropped, suspect, roundTime); err != nil {
			return err
		}
		if r.evalAndCheck(round) {
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

// advance moves the virtual clock past a closed round.
func (r *runner) advance(roundTime float64) {
	r.now += roundTime
	r.sched.Advance(r.now)
}

// evalAndCheck evaluates on schedule and reports whether the run should
// stop: an evaluation met a quality target, or the round or time budget is
// spent. In the synchronous engine the evaluation is itself a scheduler
// event: pushed at the round's close time and popped through the heap, so
// any churn that came due during the round is dispatched first, in
// virtual-time order. The async engine evaluates directly — its heap holds
// live in-flight completions that must stay queued for later rounds.
func (r *runner) evalAndCheck(round int) bool {
	if round%r.cfg.EvalEvery == 0 {
		if !r.cfg.Async {
			r.sched.Push(r.now, simsched.KindEval, int64(round))
			for {
				ev, ok := r.sched.Pop()
				if !ok || ev.Kind == simsched.KindEval {
					break
				}
				r.dispatchEvent(ev)
			}
		}
		if _, met := r.led.Evaluate(round); met {
			return true
		}
	}
	return r.led.Stop(round)
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
	// The upload is priced as the wire carries it; the server side of the
	// round then holds what the wire delivers.
	result := &codec.Result{Round: round, TrainLoss: out.TrainLoss}
	wire, delivered, leftover := Upload(aw, nn.GetWeights(net), a.Feedback, a.UploadK, r.cfg.QuantizeWire)
	if a.UploadK > 0 {
		result.Update = wire
		out.Update = delivered
		out.Leftover = leftover
	} else {
		result.Delta = wire
		if out.NewWeights, err = ApplyDelta(a.Weights, delivered); err != nil {
			return Output{}, err
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

// Upload prepares what a worker ships for one trained assignment and what
// the server holds once it arrives; the simulated and the TCP worker both
// call it. base is the model the worker trained from and trained the model
// it ended with (overwritten: it becomes the delta). Dense mode (k <= 0)
// ships the trained-minus-base delta. FlexCom mode (k > 0) first adds
// feedback, the compression error earlier uploads left behind (nil for
// none), then keeps the top fraction k of each tensor's coordinates. wire
// is the message payload; delivered is wire as the server decodes it (the
// codec's int8 reconstruction when quantize is set); leftover, in FlexCom
// mode, is what this upload left behind — the next round's feedback, so
// quantization error is compensated too.
func Upload(base, trained, feedback []*tensor.Tensor, k float64, quantize bool) (wire, delivered, leftover []*tensor.Tensor) {
	for i, d := range trained {
		d.Sub(base[i])
		if k > 0 && feedback != nil {
			d.Add(feedback[i])
		}
	}
	wire = trained
	if k > 0 {
		wire, _ = topKOf(trained, k)
	}
	delivered = wire
	if quantize {
		delivered = codec.Dequantized(wire)
	}
	if k > 0 {
		leftover = trained
		for i := range leftover {
			leftover[i].Sub(delivered[i])
		}
	}
	return wire, delivered, leftover
}

// ApplyDelta reconstructs a worker's trained weights from the assigned
// weights plus the delta as delivered (the dense upload never repeats what
// the server just sent). Both runtimes build Output.NewWeights this way.
// base is cloned, never mutated — it may alias strategy state. A delta that
// does not match the assignment's shapes is an error, not a panic: on the
// wire it is a malformed result.
func ApplyDelta(base, delta []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(delta) != len(base) {
		return nil, fmt.Errorf("delta has %d tensors, assignment has %d", len(delta), len(base))
	}
	out := nn.CloneWeights(base)
	for i := range out {
		if len(delta[i].Data) != len(out[i].Data) {
			return nil, fmt.Errorf("delta tensor %d has %d elements, assignment has %d",
				i, len(delta[i].Data), len(out[i].Data))
		}
		dst, src := out[i].Data, delta[i].Data
		for j := range dst {
			dst[j] += src[j]
		}
	}
	return out, nil
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
