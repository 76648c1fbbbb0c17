package nn

import (
	"fmt"
	"math/rand"

	"fedmp/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, implemented as im2col
// followed by one matrix multiplication per sample. Weights have shape
// [outC, inC, KH, KW]; each output filter occupies one contiguous block of
// inC·KH·KW values, which is the slice the l1-norm filter importance score
// is computed over.
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	W, B *Param

	cols []float32 // im2col buffers of the last training forward, one block per sample

	// reused buffers and view headers; rebuilt only when geometry changes
	y, dx       *tensor.Tensor // cached output / input gradient
	dcols       *tensor.Tensor // [rows, outArea] column-gradient scratch
	wmat, dwMat *tensor.Tensor // [outC, rows] views of W / W.Grad
	outV, dyV   *tensor.Tensor // per-sample [outC, outArea] views
	colV        *tensor.Tensor // per-sample [rows, outArea] view
}

// NewConv2D constructs a convolution layer with He-initialised kernels and
// zero biases. geom.OutC is the number of filters.
func NewConv2D(name string, geom tensor.ConvGeom, rng *rand.Rand) *Conv2D {
	geom.Validate()
	if geom.OutC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D %q needs OutC > 0", name))
	}
	fanIn := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name: name,
		Geom: geom,
		W:    NewParam(name+"/W", tensor.HeInit(rng, fanIn, geom.OutC, geom.InC, geom.KH, geom.KW)),
		B:    NewParam(name+"/b", tensor.New(geom.OutC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// FLOPs implements Layer: 2·outC·outH·outW·inC·KH·KW per sample.
func (c *Conv2D) FLOPs() float64 {
	g := c.Geom
	return 2 * float64(g.OutC) * float64(g.OutH()) * float64(g.OutW()) *
		float64(g.InC) * float64(g.KH) * float64(g.KW)
}

// OutShape returns the per-sample output shape [outC, outH, outW].
func (c *Conv2D) OutShape() []int {
	return []int{c.Geom.OutC, c.Geom.OutH(), c.Geom.OutW()}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: Conv2D %q got input %v, want [N %d %d %d]",
			c.name, x.Shape, g.InC, g.InH, g.InW))
	}
	n := x.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	y := ensure(c.y, n, g.OutC, g.OutH(), g.OutW())
	c.y = y
	c.wmat = view(c.wmat, c.W.W.Data, g.OutC, rows)
	inSize := g.InC * g.InH * g.InW
	if !train {
		// Inference keeps nothing for a backward pass: every sample is
		// lowered into the same pooled buffer instead of an N-sample
		// column cache, which an evaluation-only net never needs.
		buf := tensor.Scratch.Get(rows * outArea)
		for i := 0; i < n; i++ {
			c.forwardSample(x.Data[i*inSize:(i+1)*inSize], buf.Data, y, i)
		}
		tensor.Scratch.Put(buf)
		return y
	}
	if len(c.cols) != n*rows*outArea {
		c.cols = make([]float32, n*rows*outArea)
	}
	for i := 0; i < n; i++ {
		c.forwardSample(x.Data[i*inSize:(i+1)*inSize], c.cols[i*rows*outArea:(i+1)*rows*outArea], y, i)
	}
	return y
}

// forwardSample computes sample i of y from its input xi, lowering xi
// into cb first.
func (c *Conv2D) forwardSample(xi, cb []float32, y *tensor.Tensor, i int) {
	g := c.Geom
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	tensor.Im2Col(xi, g, cb)
	out := view(c.outV, y.Data[i*g.OutC*outArea:(i+1)*g.OutC*outArea], g.OutC, outArea)
	c.outV = out
	c.colV = view(c.colV, cb, rows, outArea)
	tensor.MatMulInto(out, c.wmat, c.colV, false)
	for oc := 0; oc < g.OutC; oc++ {
		bias := c.B.W.Data[oc]
		if bias == 0 {
			continue
		}
		plane := out.Data[oc*outArea : (oc+1)*outArea]
		for j := range plane {
			plane[j] += bias
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n := dy.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	inSize := g.InC * g.InH * g.InW
	dx := ensure(c.dx, n, g.InC, g.InH, g.InW)
	c.dx = dx
	dx.Zero() // Col2Im accumulates
	c.dwMat = view(c.dwMat, c.W.Grad.Data, g.OutC, rows)
	c.wmat = view(c.wmat, c.W.W.Data, g.OutC, rows)
	dcols := ensure(c.dcols, rows, outArea)
	c.dcols = dcols
	for i := 0; i < n; i++ {
		dyi := view(c.dyV, dy.Data[i*g.OutC*outArea:(i+1)*g.OutC*outArea], g.OutC, outArea)
		c.dyV = dyi
		cb := view(c.colV, c.cols[i*rows*outArea:(i+1)*rows*outArea], rows, outArea)
		c.colV = cb
		// dW += dy_i · colsᵀ
		tensor.MatMulTBInto(c.dwMat, dyi, cb, true)
		// db += per-channel sums of dy_i.
		for oc := 0; oc < g.OutC; oc++ {
			plane := dyi.Data[oc*outArea : (oc+1)*outArea]
			var s float32
			for _, v := range plane {
				s += v
			}
			c.B.Grad.Data[oc] += s
		}
		// dcols = Wᵀ · dy_i, scattered back through col2im.
		tensor.MatMulTAInto(dcols, c.wmat, dyi, false)
		tensor.Col2Im(dcols.Data, g, dx.Data[i*inSize:(i+1)*inSize])
	}
	return dx
}
