package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputDims(t *testing.T) {
	cases := []struct {
		g          ConvGeom
		outH, outW int
	}{
		{ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 0}, 3, 3},
		{ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 5},
		{ConvGeom{InC: 3, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}, 4, 4},
		{ConvGeom{InC: 1, InH: 7, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 1}, 4, 5},
	}
	for _, c := range cases {
		if c.g.OutH() != c.outH || c.g.OutW() != c.outW {
			t.Errorf("geom %+v: out %dx%d, want %dx%d", c.g, c.g.OutH(), c.g.OutW(), c.outH, c.outW)
		}
	}
}

func TestConvGeomValidatePanics(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1}, // empty output
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: -1},
	}
	for i, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Validate did not panic for %+v", i, g)
				}
			}()
			g.Validate()
		}()
	}
}

// naiveConv computes a direct convolution of x with a single-row kernel
// matrix to cross-check the im2col lowering.
func naiveConv(x []float32, g ConvGeom, w []float32) []float32 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float32, outH*outW)
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			var s float32
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						ih := oh*g.Stride - g.Pad + kh
						iw := ow*g.Stride - g.Pad + kw
						if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
							continue
						}
						s += x[(c*g.InH+ih)*g.InW+iw] * w[(c*g.KH+kh)*g.KW+kw]
					}
				}
			}
			out[oh*outW+ow] = s
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	geoms := []ConvGeom{
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 1, Pad: 0},
	}
	for _, g := range geoms {
		g.Validate()
		x := RandN(rng, g.InC*g.InH*g.InW).Data
		w := RandN(rng, g.InC*g.KH*g.KW).Data
		cols := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
		Im2Col(x, g, cols)
		wt := FromSlice(w, 1, len(w))
		ct := FromSlice(cols, len(w), g.OutH()*g.OutW())
		got := MatMul(wt, ct)
		want := naiveConv(x, g, w)
		for i := range want {
			d := got.Data[i] - want[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-4 {
				t.Fatalf("geom %+v: im2col conv mismatch at %d: %v vs %v", g, i, got.Data[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for random x and y,
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity backprop
// correctness depends on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC:    1 + r.Intn(3),
			InH:    3 + r.Intn(5),
			InW:    3 + r.Intn(5),
			KH:     1 + r.Intn(3),
			KW:     1 + r.Intn(3),
			Stride: 1 + r.Intn(2),
			Pad:    r.Intn(2),
		}
		if g.InH+2*g.Pad < g.KH || g.InW+2*g.Pad < g.KW {
			return true // degenerate; skip
		}
		colSize := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		x := RandN(r, g.InC*g.InH*g.InW)
		y := RandN(r, colSize)
		cols := make([]float32, colSize)
		Im2Col(x.Data, g, cols)
		var lhs float64
		for i := range cols {
			lhs += float64(cols[i]) * float64(y.Data[i])
		}
		dx := make([]float32, x.Size())
		Col2Im(y.Data, g, dx)
		var rhs float64
		for i := range dx {
			rhs += float64(dx[i]) * float64(x.Data[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if l := lhs; l < 0 {
			l = -l
			if l > scale {
				scale = l
			}
		} else if lhs > scale {
			scale = lhs
		}
		return diff/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColLengthPanics(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	x := make([]float32, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Im2Col with wrong cols length did not panic")
		}
	}()
	Im2Col(x, g, make([]float32, 5))
}

// refIm2Col and refCol2Im are the per-element bounds-checked loops the
// span-based Im2Col and Col2Im replaced; the fast paths must match them bit
// for bit (the training trajectory depends on it).
func refIm2Col(x []float32, g ConvGeom, cols []float32) {
	outH, outW := g.OutH(), g.OutW()
	di := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
							cols[di] = 0
						} else {
							cols[di] = plane[ih*g.InW+iw]
						}
						di++
					}
				}
			}
		}
	}
}

func refCol2Im(cols []float32, g ConvGeom, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	si := 0
	for c := 0; c < g.InC; c++ {
		plane := dx[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							plane[ih*g.InW+iw] += cols[si]
						}
						si++
					}
				}
			}
		}
	}
}

func TestIm2ColCol2ImMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range []ConvGeom{
		{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 6, InW: 6, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 3, InH: 7, InW: 9, KH: 3, KW: 2, Stride: 2, Pad: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 3, Stride: 3, Pad: 4},
		{InC: 2, InH: 3, InW: 5, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 8, InW: 5, KH: 4, KW: 4, Stride: 2, Pad: 3},
	} {
		g.Validate()
		rows, area := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		x := RandN(rng, g.InC*g.InH*g.InW).Data
		got := make([]float32, rows*area)
		want := make([]float32, rows*area)
		for i := range got {
			got[i], want[i] = 7, 7 // every element must be overwritten
		}
		Im2Col(x, g, got)
		refIm2Col(x, g, want)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v: Im2Col[%d] = %v, want %v", g, i, got[i], want[i])
			}
		}
		cols := RandN(rng, rows*area).Data
		dx := RandN(rng, len(x)).Data
		wantDx := append([]float32(nil), dx...)
		Col2Im(cols, g, dx)
		refCol2Im(cols, g, wantDx)
		for i := range dx {
			if math.Float32bits(dx[i]) != math.Float32bits(wantDx[i]) {
				t.Fatalf("%+v: Col2Im[%d] = %v, want %v", g, i, dx[i], wantDx[i])
			}
		}
	}
}
