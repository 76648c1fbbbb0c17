package core

import (
	"math"
	"runtime"
	"testing"

	"fedmp/internal/data"
	"fedmp/internal/nn"
)

// evalFamily is tinyFamily with a 300-example test set: five evaluation
// chunks, the last one partial, so sharded evaluation has real work to
// split at every GOMAXPROCS.
func evalFamily() *ImageFamily {
	fam := tinyFamily()
	fam.DS = data.Generate("tiny-eval", data.Config{
		Classes: 6, C: 1, H: 8, W: 8,
		TrainSize: 600, TestSize: 300, Noise: 0.6, MaxShift: 1, Seed: 42,
	})
	return fam
}

// withProcs runs f at the given GOMAXPROCS and restores the previous value.
func withProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestEvaluatorMatchesEvalChunked pins the evaluator to the serial
// reference: for several models, sharded evaluation at 1, 2 and 8 procs
// returns exactly what EvalChunked returns on one net.
func TestEvaluatorMatchesEvalChunked(t *testing.T) {
	fam := evalFamily()
	test := fam.TestBatch(0)
	ref, err := fam.BuildNet(fam.FullDesc(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			e, err := NewEvaluator(fam, 1, test)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(procs, 5); len(e.nets) != want {
				t.Errorf("GOMAXPROCS %d: %d nets, want %d", procs, len(e.nets), want)
			}
			for seed := int64(1); seed <= 3; seed++ {
				w := fam.InitWeights(seed)
				nn.SetWeights(ref, w)
				wantLoss, wantAcc := EvalChunked(ref, test, evalChunk)
				loss, acc := e.Eval(w)
				if math.Float64bits(loss) != math.Float64bits(wantLoss) || acc != wantAcc {
					t.Errorf("GOMAXPROCS %d seed %d: Eval = (%v, %v), EvalChunked = (%v, %v)",
						procs, seed, loss, acc, wantLoss, wantAcc)
				}
			}
		})
	}
}

// TestShardedEvalDeterminism is TestParallelCohortDeterminism's sibling for
// evaluation: a conv run whose every evaluation spans five chunks produces
// byte-identical Points at GOMAXPROCS 1 and 8, and its final Point equals
// serial EvalChunked of the final global model on one net.
func TestShardedEvalDeterminism(t *testing.T) {
	fam := evalFamily()
	cfg := quickCfg(StrategyFedMP, 3)
	cfg.EvalLimit = -1 // the whole test set
	var serial, parallel *Result
	var errSerial, errParallel error
	withProcs(1, func() { serial, errSerial = Run(fam, cfg) })
	withProcs(8, func() { parallel, errParallel = Run(fam, cfg) })
	if errSerial != nil || errParallel != nil {
		t.Fatalf("serial err %v, parallel err %v", errSerial, errParallel)
	}
	if got, want := resultFingerprint(t, parallel), resultFingerprint(t, serial); got != want {
		t.Fatalf("sharded evaluation diverges from serial:\nserial:   %.200s\nparallel: %.200s", want, got)
	}
	net, err := fam.BuildNet(fam.FullDesc(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	nn.SetWeights(net, parallel.State.Global)
	loss, acc := EvalChunked(net, fam.TestBatch(cfg.EvalLimit), evalChunk)
	last := parallel.Points[len(parallel.Points)-1]
	if math.Float64bits(last.Loss) != math.Float64bits(loss) || last.Acc != acc {
		t.Errorf("final point (%v, %v), serial EvalChunked (%v, %v)", last.Loss, last.Acc, loss, acc)
	}
}
