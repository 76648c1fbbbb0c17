package nn

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// ReLU applies max(0, x) element-wise: positive inputs pass through, every
// other input (zeros of either sign, negatives and NaN) becomes +0.
type ReLU struct {
	name  string
	size  float64
	y, dx *tensor.Tensor // reused output buffers; y doubles as the backward mask
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// FLOPs implements Layer. Element-wise cost is charged as one op per
// element of the most recent forward, which is negligible next to the
// convolutions but kept for completeness.
func (r *ReLU) FLOPs() float64 { return r.size }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := ensure(r.y, x.Shape...)
	r.y = y
	reluForward(y.Data, x.Data)
	if x.Shape[0] > 0 {
		r.size = float64(len(x.Data)) / float64(x.Shape[0])
	}
	return y
}

// Backward implements Layer. The cached output is the mask: it is nonzero
// exactly where the input was positive.
//
//fedmp:allocfree
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(r.dx, dy.Shape...) //fedmp:transitive-ok — allocates only on shape change; cache-hit path is clean
	r.dx = dx
	reluBackward(dx.Data, dy.Data, r.y.Data)
	return dx
}

// reluForward writes max(0, x) into y without a data-dependent branch, so
// the cost per element does not depend on the sign pattern: the comparison
// becomes a mask that selects the input's bits or +0. NaN compares false,
// so it maps to +0 like every other non-positive input.
//
//fedmp:allocfree
func reluForward(y, x []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = math.Float32frombits(math.Float32bits(v) & selectMask(v > 0))
	}
}

// reluBackward passes dy through where the forward output y is nonzero and
// writes +0 elsewhere. y holds only +0 or positive values, so y != 0 is
// exactly the positive-input mask.
//
//fedmp:allocfree
func reluBackward(dx, dy, y []float32) {
	dx = dx[:len(dy)]
	y = y[:len(dy)]
	for i, v := range dy {
		dx[i] = math.Float32frombits(math.Float32bits(v) & selectMask(y[i] != 0))
	}
}

// selectMask is all ones when c holds and zero otherwise. The compiler
// lowers it to a flag set and a negate (SETcc, NEG on amd64), not a jump,
// which is what makes the pointwise kernels branch-free.
func selectMask(c bool) uint32 {
	var m uint32
	if c {
		m = 1
	}
	return -m
}

// MaxPool2D performs non-overlapping max pooling with a square window over
// NCHW inputs. Window size equals stride (the only configuration the model
// zoo uses).
type MaxPool2D struct {
	name        string
	Window      int
	C, InH, InW int
	argmax      []int32 // flat input index of each output's max
	inShape     []int
	y, dx       *tensor.Tensor // reused output buffers
}

// NewMaxPool2D constructs a pooling layer for inputs of [C, inH, inW].
// inH and inW must be divisible by window.
func NewMaxPool2D(name string, c, inH, inW, window int) *MaxPool2D {
	if window <= 0 || inH%window != 0 || inW%window != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q window %d does not divide %dx%d", name, window, inH, inW))
	}
	return &MaxPool2D{name: name, Window: window, C: c, InH: inH, InW: inW}
}

// OutShape returns the per-sample output shape.
func (m *MaxPool2D) OutShape() []int {
	return []int{m.C, m.InH / m.Window, m.InW / m.Window}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// FLOPs implements Layer: one comparison per input element.
func (m *MaxPool2D) FLOPs() float64 { return float64(m.C * m.InH * m.InW) }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != m.C || x.Shape[2] != m.InH || x.Shape[3] != m.InW {
		panic(fmt.Sprintf("nn: MaxPool2D %q got input %v, want [N %d %d %d]", m.name, x.Shape, m.C, m.InH, m.InW))
	}
	n := x.Shape[0]
	outH, outW := m.InH/m.Window, m.InW/m.Window
	y := ensure(m.y, n, m.C, outH, outW)
	m.y = y
	if len(m.argmax) != len(y.Data) {
		m.argmax = make([]int32, len(y.Data))
	}
	m.inShape = x.Shape
	planeIn := m.InH * m.InW
	planeOut := outH * outW
	for p := 0; p < n*m.C; p++ {
		in := x.Data[p*planeIn : (p+1)*planeIn]
		out := y.Data[p*planeOut : (p+1)*planeOut]
		arg := m.argmax[p*planeOut : (p+1)*planeOut]
		if m.Window == 2 {
			maxPool2x2(out, arg, in, m.InW, int32(p*planeIn))
		} else {
			maxPoolPlane(out, arg, in, m.InW, m.Window, int32(p*planeIn))
		}
	}
	return y
}

// maxPoolPlane pools one [inH, inW] plane with a window×window window and
// stride, writing each window's maximum to out and its flat input index
// (base plus the offset inside the plane) to arg. The first element of a
// window seeds the maximum and only a strictly greater element replaces it,
// so ties keep the first index, a NaN in the first position wins its
// window, and a NaN anywhere else is skipped.
func maxPoolPlane(out []float32, arg []int32, in []float32, inW, window int, base int32) {
	outW := inW / window
	for oi := range out {
		oh, ow := oi/outW, oi%outW
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
		out[oi] = best
		arg[oi] = base + int32(bi)
	}
}

// maxPool2x2 is maxPoolPlane for the 2×2 window every model in the zoo
// uses, without a data-dependent branch: each "strictly greater" test
// becomes a selectMask that picks the candidate's bits and index or keeps
// the running ones. Float comparison keeps the reference semantics exactly:
// +0 and -0 are equal (the first stays), and a NaN on either side compares
// false (a leading NaN wins, any later one is skipped).
//
//fedmp:allocfree
func maxPool2x2(out []float32, arg []int32, in []float32, inW int, base int32) {
	outW := inW / 2
	for oh := 0; oh < len(out)/outW; oh++ {
		row := 2 * oh * inW
		r0 := in[row : row+inW]
		r1 := in[row+inW : row+2*inW]
		o := out[oh*outW : (oh+1)*outW]
		g := arg[oh*outW : (oh+1)*outW]
		for ow := range o {
			best, idx := r0[2*ow], uint32(row+2*ow)
			best, idx = maxStep(best, idx, r0[2*ow+1], uint32(row+2*ow+1))
			best, idx = maxStep(best, idx, r1[2*ow], uint32(row+inW+2*ow))
			best, idx = maxStep(best, idx, r1[2*ow+1], uint32(row+inW+2*ow+1))
			o[ow] = best
			g[ow] = base + int32(idx)
		}
	}
}

// maxStep is one comparison of a window scan: candidate v at plane offset i
// replaces the running maximum only when v > best.
func maxStep(best float32, idx uint32, v float32, i uint32) (float32, uint32) {
	m := selectMask(v > best)
	b := math.Float32bits(best)
	return math.Float32frombits(b ^ (b^math.Float32bits(v))&m), idx ^ (idx^i)&m
}

// Backward implements Layer.
//
//fedmp:allocfree
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(m.dx, m.inShape...) //fedmp:transitive-ok — allocates only on shape change; cache-hit path is clean
	m.dx = dx
	dx.Zero() // scatter-add below
	for oi, v := range dy.Data {
		dx.Data[m.argmax[oi]] += v
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value, mapping
// [N, C, H, W] to [N, C]. Used as the head of the residual network.
type GlobalAvgPool struct {
	name    string
	C, H, W int
	n       int
	y, dx   *tensor.Tensor // reused output buffers
}

// NewGlobalAvgPool constructs a global average pooling layer for inputs of
// [C, H, W].
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: GlobalAvgPool %q invalid dims %d,%d,%d", name, c, h, w))
	}
	return &GlobalAvgPool{name: name, C: c, H: h, W: w}
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// FLOPs implements Layer.
func (g *GlobalAvgPool) FLOPs() float64 { return float64(g.C * g.H * g.W) }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != g.C || x.Shape[2] != g.H || x.Shape[3] != g.W {
		panic(fmt.Sprintf("nn: GlobalAvgPool %q got input %v, want [N %d %d %d]", g.name, x.Shape, g.C, g.H, g.W))
	}
	g.n = x.Shape[0]
	plane := g.H * g.W
	y := ensure(g.y, g.n, g.C)
	g.y = y
	inv := 1 / float32(plane)
	for i := 0; i < g.n; i++ {
		for c := 0; c < g.C; c++ {
			src := x.Data[(i*g.C+c)*plane : (i*g.C+c+1)*plane]
			var s float32
			for _, v := range src {
				s += v
			}
			y.Data[i*g.C+c] = s * inv
		}
	}
	return y
}

// Backward implements Layer.
//
//fedmp:allocfree
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	plane := g.H * g.W
	dx := ensure(g.dx, g.n, g.C, g.H, g.W) //fedmp:transitive-ok — allocates only on shape change; cache-hit path is clean
	g.dx = dx
	inv := 1 / float32(plane)
	for i := 0; i < g.n; i++ {
		for c := 0; c < g.C; c++ {
			v := dy.Data[i*g.C+c] * inv
			dst := dx.Data[(i*g.C+c)*plane : (i*g.C+c+1)*plane]
			for j := range dst {
				dst[j] = v
			}
		}
	}
	return dx
}

// Flatten reshapes [N, C, H, W] (or any higher-rank batch) to [N, D]. It is
// a pure view change; D is fixed at construction so the layer can validate
// its inputs and report its interface width to the pruning planner.
type Flatten struct {
	name    string
	D       int
	inShape []int
	y, dx   *tensor.Tensor // reused view headers (share Data with x / dy)
}

// NewFlatten constructs a flatten layer whose per-sample input has d
// elements.
func NewFlatten(name string, d int) *Flatten {
	if d <= 0 {
		panic(fmt.Sprintf("nn: Flatten %q with non-positive width %d", name, d))
	}
	return &Flatten{name: name, D: d}
}

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// FLOPs implements Layer.
func (f *Flatten) FLOPs() float64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	if x.Size() != n*f.D {
		panic(fmt.Sprintf("nn: Flatten %q got input %v, want %d per sample", f.name, x.Shape, f.D))
	}
	f.inShape = x.Shape
	f.y = view(f.y, x.Data, n, f.D)
	return f.y
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f.dx = view(f.dx, dy.Data, f.inShape...)
	return f.dx
}
