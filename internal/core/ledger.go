package core

import (
	"fmt"
	"math"

	"fedmp/internal/bandit"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// Ledger is the round bookkeeping a round driver keeps between rounds: the
// global model, the server view strategies read through RoundInfo, the
// per-round record (RoundStats, or the streaming aggregate under
// StreamMetrics), evaluation with target-crossing times, the stop checks
// and the resumable State. The simulator's sync and async runners and the
// wire runtime's Serve all drive one, so a round is recorded the same way
// in both runtimes. They differ only in the clock they hand it: virtual
// seconds in the simulator, wall seconds since start on the wire.
type Ledger struct {
	cfg      Config
	strategy Strategy
	eval     *Evaluator
	clock    func() float64

	global    []*tensor.Tensor
	prevLoss  float64
	prevTimes []float64
	prevComm  []float64
	// ratios is each worker's most recently aggregated pruning ratio.
	ratios   []float64
	roundSum float64
	roundCnt int

	// infoTimes/infoComm are the double-buffered RoundInfo snapshots:
	// strategies may read the slices only during the round they were built
	// for, so two buffers (dispatch and aggregate can hold one each in the
	// async engine) alternate without per-round allocation.
	infoTimes [2][]float64
	infoComm  [2][]float64
	infoFlip  int

	// stream receives per-round/per-eval observations instead of the
	// Stats/Points appends when cfg.StreamMetrics is set.
	stream *StreamStats
	res    *Result
}

// NewLedger builds the bookkeeping for one run of a normalized cfg: the
// evaluator over the family's test batch and the freshly initialised global
// model. clock reads the run's current time in seconds; the ledger stamps
// evaluations with it and checks TimeBudget against it.
func NewLedger(fam Family, cfg Config, strategy Strategy, clock func() float64) (*Ledger, error) {
	eval, err := NewEvaluator(fam, cfg.Seed, fam.TestBatch(cfg.EvalLimit))
	if err != nil {
		return nil, err
	}
	l := &Ledger{
		cfg:       cfg,
		strategy:  strategy,
		eval:      eval,
		clock:     clock,
		global:    fam.InitWeights(cfg.Seed),
		prevLoss:  math.NaN(),
		prevTimes: make([]float64, cfg.Workers),
		prevComm:  make([]float64, cfg.Workers),
		ratios:    make([]float64, cfg.Workers),
		res: &Result{
			Config:           cfg,
			TimeToTargetAcc:  math.Inf(1),
			TimeToTargetLoss: math.Inf(1),
		},
	}
	for b := range l.infoTimes {
		l.infoTimes[b] = make([]float64, cfg.Workers)
		l.infoComm[b] = make([]float64, cfg.Workers)
	}
	if cfg.StreamMetrics {
		l.stream = newStreamStats()
		l.res.Stream = l.stream
	}
	return l, nil
}

// Global returns the current global model.
func (l *Ledger) Global() []*tensor.Tensor { return l.global }

// Info snapshots the server view for the strategy. The PrevTimes and
// PrevCommTimes slices alternate between two ledger-owned buffers —
// strategies may read them only until the next-next Info call (the async
// engine keeps a dispatch info and an aggregate info alive at once, hence
// two buffers rather than one), so no per-round copies are allocated.
func (l *Ledger) Info(round int) *RoundInfo {
	mean := 0.0
	if l.roundCnt > 0 {
		mean = l.roundSum / float64(l.roundCnt)
	}
	b := l.infoFlip & 1
	l.infoFlip++
	copy(l.infoTimes[b], l.prevTimes)
	copy(l.infoComm[b], l.prevComm)
	return &RoundInfo{
		Round:         round,
		Global:        l.global,
		PrevLoss:      l.prevLoss,
		PrevTimes:     l.infoTimes[b],
		PrevCommTimes: l.infoComm[b],
		MeanRoundTime: mean,
	}
}

// Close folds one finished round into the ledger: the strategy aggregates
// outs (dropped assignments reach it too, for bandit bookkeeping) into the
// new global model, the server view takes the participants' times, ratios
// and mean loss, and the round is recorded — an appended RoundStat, or the
// streaming aggregate under StreamMetrics. outs must be in worker order:
// the float sums of aggregation depend on it. suspect counts workers
// skipped up front; roundTime is the round's duration on the caller's
// clock.
func (l *Ledger) Close(round int, info *RoundInfo, outs []Output, dropped []Assignment, suspect int, roundTime float64) error {
	global, err := l.strategy.Aggregate(info, outs, dropped)
	if err != nil {
		return err
	}
	l.global = global
	l.roundSum += roundTime
	l.roundCnt++
	l.res.Rounds = round

	var comp, comm float64
	var down, up int64
	for _, o := range outs {
		comp += o.CompTime
		comm += o.CommTime
		down += o.DownBytes
		up += o.UpBytes
		l.prevTimes[o.Worker] = o.Total
		l.prevComm[o.Worker] = o.CommTime
		l.ratios[o.Worker] = o.Ratio
	}
	if len(outs) > 0 {
		comp /= float64(len(outs))
		comm /= float64(len(outs))
		l.prevLoss = meanTrainLoss(outs)
	}
	if l.stream != nil {
		l.stream.observeRound(roundTime, comp, comm, down, up, len(outs), len(dropped), suspect)
		return nil
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
		Ratios:          make([]float64, l.cfg.Workers),
	}
	for _, o := range outs {
		stat.Ratios[o.Worker] = o.Ratio
	}
	l.res.Stats = append(l.res.Stats, stat)
	return nil
}

// Evaluate measures the global model on the test batch, records a Point
// stamped with the clock (or folds it into the streaming aggregate), notes
// first target crossings and reports whether this evaluation met
// TargetAccuracy or TargetLoss.
func (l *Ledger) Evaluate(round int) (Point, bool) {
	loss, acc := l.eval.Eval(l.global)
	p := Point{Round: round, Time: l.clock(), Loss: loss, Acc: acc}
	if l.stream != nil {
		l.stream.observeEval(round, p.Time, loss, acc)
	} else {
		l.res.Points = append(l.res.Points, p)
	}
	// Crossing times are tracked even when the run continues for other
	// reasons (e.g. time-budget sweeps reading the trajectory).
	metAcc := l.cfg.TargetAccuracy > 0 && acc >= l.cfg.TargetAccuracy
	metLoss := l.cfg.TargetLoss > 0 && loss <= l.cfg.TargetLoss
	if metAcc && math.IsInf(l.res.TimeToTargetAcc, 1) {
		l.res.TimeToTargetAcc = p.Time
	}
	if metLoss && math.IsInf(l.res.TimeToTargetLoss, 1) {
		l.res.TimeToTargetLoss = p.Time
	}
	return p, metAcc || metLoss
}

// Stop reports whether the round cap or the time budget is exhausted after
// round.
func (l *Ledger) Stop(round int) bool {
	if l.cfg.Rounds > 0 && round >= l.cfg.Rounds {
		return true
	}
	return l.cfg.TimeBudget > 0 && l.clock() >= l.cfg.TimeBudget
}

// Result seals the run's Result: final metrics from the last evaluation
// and the total time on the ledger's clock.
func (l *Ledger) Result() *Result {
	if len(l.res.Points) > 0 {
		last := l.res.Points[len(l.res.Points)-1]
		l.res.FinalAcc, l.res.FinalLoss = last.Acc, last.Loss
	} else if l.stream != nil && l.stream.Evals > 0 {
		l.res.FinalAcc, l.res.FinalLoss = l.stream.LastAcc, l.stream.LastLoss
	}
	l.res.Time = l.clock()
	return l.res
}

// State snapshots the ledger for resumption: one Workers entry per slot
// with its last ratio and, for strategies that keep them, its bandit
// state. Tensors and slices are deep-copied, so the caller may keep the
// State across further rounds (or hand it to a goroutine) without
// aliasing.
func (l *Ledger) State() *State {
	st := &State{
		Round:     l.res.Rounds,
		Global:    nn.CloneWeights(l.global),
		PrevLoss:  l.prevLoss,
		RoundSum:  l.roundSum,
		PrevTimes: append([]float64(nil), l.prevTimes...),
		PrevComm:  append([]float64(nil), l.prevComm...),
		Workers:   make([]codec.WorkerState, l.cfg.Workers),
	}
	var bandits []*bandit.State
	if bp, ok := l.strategy.(BanditPersistent); ok {
		bandits = bp.ExportBandits()
	}
	for slot := range st.Workers {
		st.Workers[slot] = codec.WorkerState{Slot: slot, Ratio: l.ratios[slot]}
		if slot < len(bandits) {
			st.Workers[slot].Bandit = bandits[slot]
		}
	}
	return st
}

// Restore injects a snapshot into a fresh ledger, validating it against the
// run's configuration and model before touching anything: the round must
// leave budget to resume into, the model must match tensor for tensor, the
// per-worker slices and slots must fit the worker count, and bandit state
// needs a strategy that keeps it.
func (l *Ledger) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("core: nil resume state")
	}
	if st.Round < 0 {
		return fmt.Errorf("core: resume state at negative round %d", st.Round)
	}
	if l.cfg.Rounds > 0 && st.Round >= l.cfg.Rounds {
		return fmt.Errorf("core: resume round %d is at or past the %d-round budget", st.Round, l.cfg.Rounds)
	}
	if len(st.Global) != len(l.global) {
		return fmt.Errorf("core: resume state has %d global tensors, model has %d", len(st.Global), len(l.global))
	}
	for i, t := range st.Global {
		if t == nil || !tensor.SameShape(t, l.global[i]) {
			return fmt.Errorf("core: resume state tensor %d does not match the model's shape %v", i, l.global[i].Shape)
		}
	}
	workers := l.cfg.Workers
	for _, vs := range [][]float64{st.PrevTimes, st.PrevComm} {
		if len(vs) != 0 && len(vs) != workers {
			return fmt.Errorf("core: resume state tracks %d workers, run has %d", len(vs), workers)
		}
	}
	bandits := make([]*bandit.State, workers)
	found := false
	for _, w := range st.Workers {
		if w.Slot < 0 || w.Slot >= workers {
			return fmt.Errorf("core: resume state worker slot %d outside 0..%d", w.Slot, workers-1)
		}
		bandits[w.Slot] = w.Bandit
		found = found || w.Bandit != nil
	}
	if found {
		bp, ok := l.strategy.(BanditPersistent)
		if !ok {
			return fmt.Errorf("core: resume state carries bandit state but strategy %s keeps none", l.strategy.Name())
		}
		if err := bp.RestoreBandits(bandits); err != nil {
			return err
		}
	}
	l.global = nn.CloneWeights(st.Global)
	l.prevLoss = st.PrevLoss
	l.roundSum = st.RoundSum
	// Every completed round counted once towards the mean round time.
	l.roundCnt = st.Round
	l.res.Rounds = st.Round
	copy(l.prevTimes, st.PrevTimes)
	copy(l.prevComm, st.PrevComm)
	for _, w := range st.Workers {
		l.ratios[w.Slot] = w.Ratio
	}
	return nil
}
