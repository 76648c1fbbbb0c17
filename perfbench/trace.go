package main

import (
	"context"
	"math/rand"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// Span names: one per public seam the benchmark wraps.
const (
	spanBuild   = "zoo.build"
	spanPlan    = "prune.plan"
	spanRecover = "prune.recover"
	spanSparse  = "prune.sparse"
	spanSources = "data.sources"
	spanNext    = "data.next"
	spanTrain   = "nn.train"
	spanEval    = "nn.eval"
	spanRound   = "round"
)

// psWorker marks spans made by the engine or the parameter server rather
// than by a worker.
const psWorker = -1

// span is one call into a layer, timed from the benchmark's side of the
// seam. round is assigned after the run from the round boundaries.
type span struct {
	name   string
	iv     interval
	worker int
	round  int
}

// recorder collects what one workload execution (a rep) exposes at the
// wrapped seams. Untraced reps keep only the boundary stamps the
// end-to-end metrics need (Eval call ends, assignment arrivals, sample
// counts); traced reps also keep every span in memory and label the CPU
// profile by layer.
type recorder struct {
	origin  time.Time
	tracing bool
	samples atomic.Int64

	mu           sync.Mutex
	spans        []span
	evalCallEnds []time.Duration
	builds       map[int][]time.Duration // assignment arrivals per wire worker
	batchWorker  map[*nn.Batch]int       // sim: which worker's source made a batch
}

func newRecorder(tracing bool) *recorder {
	return &recorder{
		origin:      time.Now(),
		tracing:     tracing,
		builds:      map[int][]time.Duration{},
		batchWorker: map[*nn.Batch]int{},
	}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// call runs fn and returns when it ended. When tracing it also records fn
// as one span of the named layer, run under a pprof label naming the layer
// so the CPU profile splits the same way, and returns the span's index
// (-1 when not tracing).
func (r *recorder) call(name string, worker int, fn func()) (idx int, end time.Duration) {
	if !r.tracing {
		fn()
		return -1, r.now()
	}
	start := r.now()
	pprof.Do(context.Background(), pprof.Labels("layer", name), func(context.Context) { fn() })
	end = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, iv: interval{start, end}, worker: worker})
	return len(r.spans) - 1, end
}

// tracedFamily wraps a core.Family. worker is psWorker for the engine's or
// parameter server's family and the worker index for a wire worker's.
type tracedFamily struct {
	core.Family
	rec    *recorder
	worker int
}

func (f *tracedFamily) BuildNet(desc any, seed int64) (nn.Network, error) {
	if f.worker >= 0 {
		f.rec.mu.Lock()
		f.rec.builds[f.worker] = append(f.rec.builds[f.worker], f.rec.now())
		f.rec.mu.Unlock()
	}
	var net nn.Network
	var err error
	idx, _ := f.rec.call(spanBuild, f.worker, func() { net, err = f.Family.BuildNet(desc, seed) })
	if err != nil {
		return nil, err
	}
	return &tracedNet{Network: net, rec: f.rec, worker: f.worker, buildSpan: idx}, nil
}

func (f *tracedFamily) MakePlan(weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (plan any, subDesc any, subW []*tensor.Tensor, err error) {
	f.rec.call(spanPlan, f.worker, func() { plan, subDesc, subW, err = f.Family.MakePlan(weights, ratio, jitter, rng) })
	return
}

func (f *tracedFamily) Recover(plan any, subW []*tensor.Tensor) (out []*tensor.Tensor, err error) {
	f.rec.call(spanRecover, f.worker, func() { out, err = f.Family.Recover(plan, subW) })
	return
}

func (f *tracedFamily) Sparse(weights []*tensor.Tensor, plan any) (out []*tensor.Tensor, err error) {
	f.rec.call(spanSparse, f.worker, func() { out, err = f.Family.Sparse(weights, plan) })
	return
}

func (f *tracedFamily) Sources(workers int, nonIID core.NonIID, batchSize int, seed int64) ([]core.Source, error) {
	var srcs []core.Source
	var err error
	f.rec.call(spanSources, f.worker, func() { srcs, err = f.Family.Sources(workers, nonIID, batchSize, seed) })
	if err != nil {
		return nil, err
	}
	out := make([]core.Source, len(srcs))
	for i, s := range srcs {
		out[i] = &tracedSource{Source: s, rec: f.rec, worker: i}
	}
	return out, nil
}

// tracedSource wraps one worker's core.Source.
type tracedSource struct {
	core.Source
	rec    *recorder
	worker int
}

func (s *tracedSource) Next() *nn.Batch {
	var b *nn.Batch
	s.rec.call(spanNext, s.worker, func() { b = s.Source.Next() })
	s.rec.samples.Add(int64(b.Size()))
	if s.rec.tracing {
		s.rec.mu.Lock()
		s.rec.batchWorker[b] = s.worker
		s.rec.mu.Unlock()
	}
	return b
}

// tracedNet wraps an nn.Network built through a tracedFamily. In the
// simulator the engine's family builds every worker's net, so the worker
// is learned from the first batch the net trains on and patched into the
// net's build span.
type tracedNet struct {
	nn.Network
	rec       *recorder
	worker    int
	buildSpan int
}

func (n *tracedNet) TrainStep(b *nn.Batch) (loss float64, correct int) {
	if n.rec.tracing {
		n.rec.mu.Lock()
		if w, ok := n.rec.batchWorker[b]; ok {
			delete(n.rec.batchWorker, b)
			if n.worker == psWorker {
				n.worker = w
				if n.buildSpan >= 0 {
					n.rec.spans[n.buildSpan].worker = w
				}
			}
		}
		n.rec.mu.Unlock()
	}
	n.rec.call(spanTrain, n.worker, func() { loss, correct = n.Network.TrainStep(b) })
	return loss, correct
}

func (n *tracedNet) Eval(b *nn.Batch) (loss float64, correct int) {
	_, end := n.rec.call(spanEval, psWorker, func() { loss, correct = n.Network.Eval(b) })
	n.rec.mu.Lock()
	n.rec.evalCallEnds = append(n.rec.evalCallEnds, end)
	n.rec.mu.Unlock()
	return loss, correct
}
