package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
// All convolutions in this repository are square-strided with symmetric
// zero padding.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial extent
	OutC          int // output channels (ignored by pooling)
	KH, KW        int // kernel extent
	Stride        int
	Pad           int
}

// OutH returns the output height implied by the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width implied by the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate panics if the geometry is degenerate (non-positive dimensions or
// an empty output plane).
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 || g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output %dx%d", g, g.OutH(), g.OutW()))
	}
}

// Im2Col lowers one image x (layout [C,H,W] flattened) into a column matrix
// of shape [C*KH*KW, OutH*OutW] written into cols. Convolution then becomes
// a single matrix multiplication of the [OutC, C*KH*KW] kernel matrix with
// the column matrix.
//
// cols must have length C*KH*KW*OutH*OutW; it is fully overwritten.
func Im2Col(x []float32, g ConvGeom, cols []float32) {
	outH, outW := g.OutH(), g.OutW()
	outArea := outH * outW
	if len(cols) != g.InC*g.KH*g.KW*outArea {
		panic(fmt.Sprintf("tensor: Im2Col cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*outArea))
	}
	if len(x) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(x), g.InC*g.InH*g.InW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst := cols[row*outArea : (row+1)*outArea]
				lo, hi := validSpan(kw, g.Pad, g.Stride, g.InW, outW)
				for oh := 0; oh < outH; oh++ {
					seg := dst[oh*outW : (oh+1)*outW]
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						clear(seg)
						continue
					}
					src := plane[ih*g.InW : (ih+1)*g.InW]
					clear(seg[:lo])
					clear(seg[hi:])
					if g.Stride == 1 {
						copy(seg[lo:hi], src[lo-g.Pad+kw:])
					} else {
						for ow := lo; ow < hi; ow++ {
							seg[ow] = src[ow*g.Stride-g.Pad+kw]
						}
					}
				}
				row++
			}
		}
	}
}

// validSpan returns the output columns [lo, hi) whose input column
// ow·stride − pad + k falls inside [0, in): the columns outside it read
// zero padding. lo ≤ hi always holds.
func validSpan(k, pad, stride, in, out int) (lo, hi int) {
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	if last := in - 1 + pad - k; last >= 0 {
		hi = min(last/stride+1, out)
	}
	return min(lo, hi), hi
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) the column
// matrix cols back into the image gradient dx, which must be zeroed by the
// caller beforehand if a fresh gradient is wanted.
func Col2Im(cols []float32, g ConvGeom, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	outArea := outH * outW
	if len(cols) != g.InC*g.KH*g.KW*outArea {
		panic(fmt.Sprintf("tensor: Col2Im cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*outArea))
	}
	if len(dx) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im output length %d, want %d", len(dx), g.InC*g.InH*g.InW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := dx[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				src := cols[row*outArea : (row+1)*outArea]
				lo, hi := validSpan(kw, g.Pad, g.Stride, g.InW, outW)
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						continue
					}
					seg := src[oh*outW : (oh+1)*outW]
					dst := plane[ih*g.InW : (ih+1)*g.InW]
					for ow := lo; ow < hi; ow++ {
						dst[ow*g.Stride-g.Pad+kw] += seg[ow]
					}
				}
				row++
			}
		}
	}
}
