package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// interval is a half-open stretch of time [start, end) measured from the
// benchmark's origin.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it sorts in place, and how many samples lie strictly beyond the selected
// rank. A percentile is reported only when at least minBeyond samples lie
// beyond it; otherwise the tail is too thin to mean anything.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n - rank, nil
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile is percentile with the minBeyond rule enforced.
func tailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond, err := percentile(xs, p)
	if err != nil {
		return 0, err
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median returns the 0.5 nearest-rank quantile of a copy of xs (0 when
// empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _, _ := percentile(append([]float64(nil), xs...), 0.5)
	return v
}

// union returns the total length of the parts of within that at least one
// of ivs covers.
func union(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		if open && iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.dur()
		}
		cur, open = iv, true
	}
	if open {
		total += cur.dur()
	}
	return total
}

// selfTime is a parent interval's duration minus the part its children
// cover: the time the parent layer spent in its own code or waiting.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - union(children, parent)
}

// evalCalls is how many nn.Network.Eval calls one evaluation of the global
// model makes: core.EvalChunked walks min(EvalLimit, test size) examples in
// chunks of chunk (EvalLimit <= 0 means the whole test set).
func evalCalls(evalLimit, testSize, chunk int) int {
	n := testSize
	if evalLimit > 0 && evalLimit < n {
		n = evalLimit
	}
	return (n + chunk - 1) / chunk
}

// evalEnds groups the end stamps of consecutive Eval calls into
// evaluations of perCall calls each and returns the end of every complete
// evaluation: the round boundaries of an engine that evaluates once per
// round.
func evalEnds(callEnds []time.Duration, perEval int) []time.Duration {
	out := make([]time.Duration, 0, len(callEnds)/perEval)
	for i := perEval - 1; i < len(callEnds); i += perEval {
		out = append(out, callEnds[i])
	}
	return out
}
