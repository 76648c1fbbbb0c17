//go:build !race

package nn

import (
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// The steady-state training path is designed to perform (almost) zero heap
// allocations per step: every layer reuses its output and workspace buffers
// once batch geometry is stable, and the GEMM engine draws pack buffers from
// tensor.Scratch. These tests pin that property so a stray allocation in a
// hot loop shows up as a regression rather than as silent GC pressure.
//
// The file is excluded under the race detector, which instruments allocations
// and breaks testing.AllocsPerRun's accounting.

// allocsPerRun warms f up (first call allocates all cached buffers) and then
// measures the steady-state allocation count.
func allocsPerRun(f func()) float64 {
	f()
	f()
	return testing.AllocsPerRun(20, f)
}

func TestDenseStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 64, 32, rng)
	x := tensor.RandN(rng, 8, 64)
	dy := tensor.RandN(rng, 8, 32)
	got := allocsPerRun(func() {
		d.Forward(x, true)
		d.Backward(dy)
	})
	if got > 0 {
		t.Errorf("Dense forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestConvStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c := NewConv2D("c", g, rng)
	x := tensor.RandN(rng, 4, 4, 8, 8)
	dy := tensor.RandN(rng, 4, 8, 8, 8)
	got := allocsPerRun(func() {
		c.Forward(x, true)
		c.Backward(dy)
	})
	if got > 0 {
		t.Errorf("Conv2D forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestLSTMStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM("l", 16, 16, rng)
	x := tensor.RandN(rng, 4, 5, 16)
	dy := tensor.RandN(rng, 4, 5, 16)
	got := allocsPerRun(func() {
		l.Forward(x)
		l.Backward(dy)
	})
	if got > 0 {
		t.Errorf("LSTM forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestBatchNormStepAllocsZero(t *testing.T) {
	b := NewBatchNorm2D("bn", 4)
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandN(rng, 4, 4, 8, 8)
	dy := tensor.RandN(rng, 4, 4, 8, 8)
	got := allocsPerRun(func() {
		b.Forward(x, true)
		b.Backward(dy)
	})
	if got > 0 {
		t.Errorf("BatchNorm2D forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestSequentialTrainStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, rng),
		NewReLU("r1"),
		NewFlatten("f", 4*8*8),
		NewDense("d", 4*8*8, 10, rng),
	)
	x := tensor.RandN(rng, 4, 1, 8, 8)
	batch := &Batch{X: x, Labels: []int{0, 1, 2, 3}}
	got := allocsPerRun(func() { net.TrainStep(batch) })
	if got > 0 {
		t.Errorf("Sequential.TrainStep allocates %.1f objects per step, want 0", got)
	}
}

func TestLSTMLMTrainStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewLSTMLM(32, 8, 16, 5, rng)
	seqs := make([][]int, 4)
	for i := range seqs {
		s := make([]int, 6)
		for j := range s {
			s[j] = rng.Intn(32)
		}
		seqs[i] = s
	}
	batch := &Batch{Seq: seqs}
	got := allocsPerRun(func() { m.TrainStep(batch) })
	if got > 0 {
		t.Errorf("LSTMLM.TrainStep allocates %.1f objects per step, want 0", got)
	}
}

// TestConvNetInferenceAllocs pins the evaluation path: Conv2D with
// train=false lowers each sample into a pooled tensor.Scratch buffer, so a
// steady-state inference forward of a conv net allocates nothing.
func TestConvNetInferenceAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvGeom{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, rng),
		NewReLU("r1"),
		NewMaxPool2D("p1", 4, 8, 8, 2),
		NewFlatten("f", 4*4*4),
		NewDense("d", 4*4*4, 10, rng),
	)
	batch := &Batch{X: tensor.RandN(rng, 4, 3, 8, 8), Labels: []int{0, 1, 2, 3}}
	got := allocsPerRun(func() { net.Eval(batch) })
	if got > 0 {
		t.Errorf("conv net inference allocates %.1f objects per call, want 0", got)
	}
}
