package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// The branch-free ReLU and 2×2 max-pool kernels and the one-pass SGD step
// must reproduce the code they replaced bit for bit: the model trajectory
// of every run depends on it. The reference loops below are those originals.

// refReLUForward is the original ReLU forward: it records a mask of
// positive inputs and writes the input or +0.
func refReLUForward(x []float32) (y []float32, mask []bool) {
	y = make([]float32, len(x))
	mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			mask[i] = true
			y[i] = v
		} else {
			mask[i] = false
			y[i] = 0
		}
	}
	return y, mask
}

// refReLUBackward is the original ReLU backward over the forward mask.
func refReLUBackward(dy []float32, mask []bool) []float32 {
	dx := make([]float32, len(dy))
	for i, v := range dy {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// refMaxPool is the original MaxPool2D forward over one [N, C, H, W] batch.
func refMaxPool(x []float32, n, c, inH, inW, window int) (y []float32, argmax []int32) {
	outH, outW := inH/window, inW/window
	y = make([]float32, n*c*outH*outW)
	argmax = make([]int32, len(y))
	planeIn, planeOut := inH*inW, outH*outW
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			in := x[(i*c+ch)*planeIn : (i*c+ch+1)*planeIn]
			outBase := (i*c + ch) * planeOut
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := float32(0)
					bi := -1
					for kh := 0; kh < window; kh++ {
						rowOff := (oh*window + kh) * inW
						for kw := 0; kw < window; kw++ {
							idx := rowOff + ow*window + kw
							if bi < 0 || in[idx] > best {
								best, bi = in[idx], idx
							}
						}
					}
					oi := outBase + oh*outW + ow
					y[oi] = best
					argmax[oi] = int32((i*c+ch)*planeIn + bi)
				}
			}
		}
	}
	return y, argmax
}

// specialFloats covers every class the bit tricks distinguish: both zeros,
// both infinities, NaNs of both signs (quiet, signalling-pattern and
// all-ones payloads), subnormals at both ends of the range, the extreme
// normals, and a few ordinary values with a tied pair.
func specialFloats() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, // NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
	}
	out := make([]float32, 0, len(bits)+4)
	for _, b := range bits {
		out = append(out, math.Float32frombits(b))
	}
	return append(out, 1, -1, 0.5, 0.5)
}

// sameBits reports whether two float32 slices are identical bit for bit.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %#08x (%v), want %#08x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := specialFloats()
	// Every special value as an input against every special value as an
	// upstream gradient, then a random tail.
	var x, dy []float32
	for _, a := range sp {
		for _, g := range sp {
			x = append(x, a)
			dy = append(dy, g)
		}
	}
	for i := 0; i < 1000; i++ {
		x = append(x, float32(rng.NormFloat64()))
		dy = append(dy, float32(rng.NormFloat64()))
	}
	r := NewReLU("r")
	y := r.Forward(tensor.FromSlice(x, len(x)), true)
	wantY, mask := refReLUForward(x)
	sameBits(t, "forward", y.Data, wantY)
	dx := r.Backward(tensor.FromSlice(dy, len(dy)))
	sameBits(t, "backward", dx.Data, refReLUBackward(dy, mask))
}

// poolInput lays out every ordered 4-tuple of vals as one 2×2 window of a
// [1, 1, 2, 2·len(vals)⁴] plane.
func poolInput(vals []float32) (x []float32, inW int) {
	n := len(vals)
	windows := n * n * n * n
	inW = 2 * windows
	x = make([]float32, 2*inW)
	for w := 0; w < windows; w++ {
		a, b, c, d := vals[w%n], vals[w/n%n], vals[w/(n*n)%n], vals[w/(n*n*n)]
		x[2*w], x[2*w+1] = a, b
		x[inW+2*w], x[inW+2*w+1] = c, d
	}
	return x, inW
}

func TestMaxPool2x2MatchesReference(t *testing.T) {
	// All 4-tuples of a class-representative subset: ties, equal zeros of
	// opposite signs, NaN first/middle/last, infinities and subnormals.
	vals := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001),
		math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
		1, -1, 2,
	}
	x, inW := poolInput(vals)
	m := NewMaxPool2D("p", 1, 2, inW, 2)
	checkPool(t, m, x, 1, 1, 2, inW)

	// Random multi-sample, multi-channel batches with many exact ties.
	rng := rand.New(rand.NewSource(12))
	rx := make([]float32, 3*4*8*6)
	for i := range rx {
		rx[i] = float32(rng.Intn(5) - 2)
	}
	checkPool(t, NewMaxPool2D("p", 4, 8, 6, 2), rx, 3, 4, 8, 6)
}

func TestMaxPoolOtherWindowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sp := specialFloats()
	x := make([]float32, 2*3*9*6)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = sp[rng.Intn(len(sp))]
		} else {
			x[i] = float32(rng.Intn(7) - 3)
		}
	}
	checkPool(t, NewMaxPool2D("p", 3, 9, 6, 3), x, 2, 3, 9, 6)
	checkPool(t, NewMaxPool2D("p", 3, 9, 6, 1), x, 2, 3, 9, 6)
}

// checkPool runs m forward and backward over x and compares outputs,
// argmax indices and input gradients with the reference loop.
func checkPool(t *testing.T, m *MaxPool2D, x []float32, n, c, h, w int) {
	t.Helper()
	y := m.Forward(tensor.FromSlice(x, n, c, h, w), true)
	wantY, wantArg := refMaxPool(x, n, c, h, w, m.Window)
	sameBits(t, "forward", y.Data, wantY)
	for i := range wantArg {
		if m.argmax[i] != wantArg[i] {
			t.Fatalf("argmax[%d] = %d, want %d", i, m.argmax[i], wantArg[i])
		}
	}
	rng := rand.New(rand.NewSource(14))
	dy := make([]float32, len(wantY))
	for i := range dy {
		dy[i] = float32(rng.NormFloat64())
	}
	dx := m.Backward(tensor.FromSlice(dy, y.Shape...))
	wantDx := make([]float32, len(x))
	for oi, v := range dy {
		wantDx[wantArg[oi]] += v
	}
	sameBits(t, "backward", dx.Data, wantDx)
}

// TestConvInferenceMatchesTraining pins the pooled inference lowering to
// the training path's cached columns: both must produce the same output.
func TestConvInferenceMatchesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := tensor.ConvGeom{InC: 3, InH: 7, InW: 6, OutC: 5, KH: 3, KW: 3, Stride: 2, Pad: 1}
	c := NewConv2D("c", g, rng)
	for i := range c.B.W.Data {
		c.B.W.Data[i] = float32(rng.NormFloat64())
	}
	x := tensor.RandN(rng, 4, 3, 7, 6)
	train := c.Forward(x, true).Clone()
	sameBits(t, "inference", c.Forward(x, false).Data, train.Data)
}

// refSGDStep is the original term-by-term SGD update: a cloned gradient
// with weight decay added, the velocity scaled then accumulated, and an
// axpy into the weights.
func refSGDStep(s *SGD, params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		g := p.Grad
		if s.WeightDecay != 0 {
			g = g.Clone()
			g.AddScaled(s.WeightDecay, p.W)
		}
		if s.Momentum > 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.W.Shape...)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.Add(g)
			g = v
		}
		p.W.AddScaled(-s.LR, g)
	}
}

func TestSGDStepMatchesReference(t *testing.T) {
	for _, c := range []struct{ lr, momentum, wd float32 }{
		{0.05, 0.9, 5e-4}, {0.05, 0.9, 0}, {0.1, 0, 1e-3}, {0.03, 0, 0},
	} {
		rng := rand.New(rand.NewSource(16))
		mk := func() []*Param {
			ps := []*Param{NewParam("a", tensor.RandN(rng, 7, 5)), NewParam("b", tensor.RandN(rng, 9)), NewParam("c", tensor.RandN(rng, 3))}
			ps[2].Frozen = true
			return ps
		}
		got, want := mk(), mk()
		for i := range want {
			copy(want[i].W.Data, got[i].W.Data)
		}
		opt, ref := NewSGD(c.lr, c.momentum, c.wd), NewSGD(c.lr, c.momentum, c.wd)
		for step := 0; step < 4; step++ {
			for i := range got {
				g := tensor.RandN(rng, got[i].W.Shape...)
				copy(got[i].Grad.Data, g.Data)
				copy(want[i].Grad.Data, g.Data)
			}
			opt.Step(got)
			refSGDStep(ref, want)
			for i := range got {
				sameBits(t, "weights", got[i].W.Data, want[i].W.Data)
				sameBits(t, "grad", got[i].Grad.Data, want[i].Grad.Data)
			}
		}
	}
}
