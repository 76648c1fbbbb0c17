package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// tensorFuncs are the tensor-layer functions whose flat share of nn.train
// CPU time the traced run reports, keyed by metric name. A profile sample
// belongs to the first bucket whose suffix matches its leaf function.
var tensorFuncs = []struct {
	metric   string
	suffixes []string
}{
	{"tensor.im2col_share", []string{"tensor.Im2Col"}},
	{"tensor.col2im_share", []string{"tensor.Col2Im"}},
	{"tensor.packA_share", []string{"tensor.packA"}},
	{"tensor.packB_share", []string{"tensor.packB"}},
	{"tensor.microkernel_share", []string{"tensor.gemmKernel4x8", "tensor.gemmKernel4x8fma", "tensor.gemmKernel6x16fma",
		"tensor.microTileGo", "tensor.microTileFMA", "tensor.mergeTile", "tensor.fmaf32"}},
	{"tensor.gemmDirect_share", []string{"tensor.gemmDirect"}},
}

// layerShares reads a gzipped pprof CPU profile and returns, among the
// samples labelled layer=<layer>, each tensor bucket's share of CPU time
// attributed to the leaf (flat) function.
func layerShares(gz []byte, layer string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(tensorFuncs))
	for _, tf := range tensorFuncs {
		out[tf.metric] = 0
	}
	var total int64
	for _, s := range p.samples {
		if p.label(s, "layer") != layer || len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		total += v
		leaf := p.leafFunc(s.locs[0])
	bucket:
		for _, tf := range tensorFuncs {
			for _, suf := range tf.suffixes {
				if strings.HasSuffix(leaf, suf) {
					out[tf.metric] += float64(v)
					break bucket
				}
			}
		}
	}
	if total == 0 {
		return out, nil
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, nil
}

// profile is the part of a pprof protobuf the shares need.
type profile struct {
	samples   []sample
	locFunc   map[uint64]uint64 // location id -> leaf function id
	funcNames map[uint64]int64  // function id -> string index
	strs      []string
}

type sample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, str) string indexes
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *profile) label(s sample, key string) string {
	for _, l := range s.labels {
		if p.str(l[0]) == key {
			return p.str(l[1])
		}
	}
	return ""
}

func (p *profile) leafFunc(loc uint64) string {
	return p.str(p.funcNames[p.locFunc[loc]])
}

// parseProfile decodes the profile.proto fields it needs: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcNames: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(sub, func(f int, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var l [2]int64
					err := walkFields(sub, func(f int, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := walkFields(sub, func(f int, _ int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // the first line is the innermost inlined function
					}
					seenLine = true
					return walkFields(sub, func(f int, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(sub, func(f int, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints handles a repeated varint field in either encoding:
// one value per field (wire type 0) or packed (wire type 2).
func appendVarints(wire int, v uint64, sub []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint or fixed value, sub a length-delimited payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
