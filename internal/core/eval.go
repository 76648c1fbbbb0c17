package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// evalChunk is the number of test examples one nn.Network.Eval call sees.
// It bounds activation memory and is the unit Evaluator shards by.
const evalChunk = 64

// Evaluator measures global models on a fixed test batch with every core:
// it holds one full-model net per shard and hands the batch's evalChunk
// chunks out by atomic index, the way trainCohort shards a cohort. Each
// chunk's (loss, correct) lands in its own slot and the slots are reduced
// in chunk order, so the result is bit-identical to EvalChunked on one net
// at any GOMAXPROCS. The simulator and the wire runtime both evaluate
// through it.
type Evaluator struct {
	nets    []nn.Network
	chunks  []*nn.Batch
	loss    []float64
	correct []int
}

// NewEvaluator builds an evaluator over test for fam's full model: one net
// per core at construction time (GOMAXPROCS, capped by the chunk count),
// each built through fam.BuildNet like every other model of the run.
func NewEvaluator(fam Family, seed int64, test *nn.Batch) (*Evaluator, error) {
	e := &Evaluator{}
	for start := 0; start < test.Size(); start += evalChunk {
		e.chunks = append(e.chunks, sliceBatch(test, start, min(start+evalChunk, test.Size())))
	}
	e.loss = make([]float64, len(e.chunks))
	e.correct = make([]int, len(e.chunks))
	shards := max(1, min(runtime.GOMAXPROCS(0), len(e.chunks)))
	for range shards {
		net, err := fam.BuildNet(fam.FullDesc(), seed)
		if err != nil {
			return nil, err
		}
		e.nets = append(e.nets, net)
	}
	return e, nil
}

// Eval loads weights into the evaluator's nets and returns the mean loss
// and accuracy over the test batch.
func (e *Evaluator) Eval(weights []*tensor.Tensor) (loss, acc float64) {
	var next atomic.Int64
	work := func(net nn.Network) {
		nn.SetWeights(net, weights)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(e.chunks) {
				return
			}
			e.loss[i], e.correct[i] = net.Eval(e.chunks[i])
		}
	}
	if shards := min(len(e.nets), runtime.GOMAXPROCS(0)); shards <= 1 {
		work(e.nets[0])
	} else {
		var wg sync.WaitGroup
		for _, net := range e.nets[:shards] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(net)
			}()
		}
		wg.Wait()
	}
	// The same accumulation, in the same order, as EvalChunked.
	var lossSum float64
	var correct, total int
	for i, sub := range e.chunks {
		cnt := sub.Size()
		lossSum += e.loss[i] * float64(cnt)
		correct += e.correct[i]
		total += cnt
	}
	if total == 0 {
		return 0, 0
	}
	return lossSum / float64(total), float64(correct) / float64(total)
}

// EvalChunked evaluates a batch in chunks to bound activation memory,
// returning the mean loss and accuracy. It is the serial reference that
// Evaluator reproduces with more cores.
func EvalChunked(net nn.Network, b *nn.Batch, chunk int) (loss, acc float64) {
	n := b.Size()
	var lossSum float64
	var correct int
	var total int
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		sub := sliceBatch(b, start, end)
		l, c := net.Eval(sub)
		cnt := end - start
		lossSum += l * float64(cnt)
		correct += c
		total += cnt
	}
	if total == 0 {
		return 0, 0
	}
	return lossSum / float64(total), float64(correct) / float64(total)
}

// sliceBatch returns the [start,end) sub-batch.
func sliceBatch(b *nn.Batch, start, end int) *nn.Batch {
	if b.X != nil {
		per := b.X.Size() / b.X.Shape[0]
		shape := append([]int{end - start}, b.X.Shape[1:]...)
		return &nn.Batch{
			X:      tensor.FromSlice(b.X.Data[start*per:end*per], shape...),
			Labels: b.Labels[start:end],
		}
	}
	return &nn.Batch{Seq: b.Seq[start:end]}
}
