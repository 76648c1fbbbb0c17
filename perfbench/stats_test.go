package main

import (
	"testing"
	"time"
)

func TestPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, beyond, err := percentile(xs, 0.9)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond (%v), want 90 with 10", v, beyond, err)
	}
	if got, err := tailPercentile(xs, 0.9); err != nil || got != 90 {
		t.Fatalf("tailPercentile(100 samples) = %v, %v", got, err)
	}
	if _, err := tailPercentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond; want an error")
	}
	if got := median([]float64{5, 1, 3, 2, 4}); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples should fail")
	}
}

func TestSelfTimeIsIntervalMinusChildUnion(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	parent := ms(10, 110)
	children := []interval{
		ms(20, 40), // overlaps the next one: union counts 20..50 once
		ms(30, 50),
		ms(60, 70),
		ms(0, 15),    // clipped to 10..15
		ms(105, 200), // clipped to 105..110
		ms(65, 68),   // nested inside 60..70
		ms(200, 300), // outside the parent
	}
	u := union(children, parent)
	if want := 50 * time.Millisecond; u != want {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Fatalf("self = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != parent.dur() {
		t.Fatalf("self with no children = %v, want %v", got, parent.dur())
	}
}

func TestRoundBoundariesFromEvalChunks(t *testing.T) {
	cases := []struct{ limit, test, want int }{
		{256, 512, 4}, // default EvalLimit on the image test sets
		{200, 512, 4},
		{64, 615, 1},  // language model
		{0, 512, 8},   // no limit: the whole test set
		{256, 100, 2}, // limit above the test size
		{65, 512, 2},
	}
	for _, c := range cases {
		if got := evalCalls(c.limit, c.test, 64); got != c.want {
			t.Errorf("evalCalls(%d, %d) = %d, want %d", c.limit, c.test, got, c.want)
		}
	}
	var calls []time.Duration
	for i := 1; i <= 13; i++ {
		calls = append(calls, time.Duration(i))
	}
	got := evalEnds(calls, 4)
	want := []time.Duration{4, 8, 12} // the 13th call starts an unfinished evaluation
	if len(got) != len(want) {
		t.Fatalf("evalEnds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("evalEnds = %v, want %v", got, want)
		}
	}
}

func TestRoundOf(t *testing.T) {
	ivs := []interval{{10, 20}, {20, 30}, {30, 45}}
	for _, c := range []struct {
		t    time.Duration
		want int
	}{{5, -1}, {10, 0}, {19, 0}, {20, 1}, {44, 2}, {45, -1}} {
		if got := roundOf(ivs, c.t); got != c.want {
			t.Errorf("roundOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}
