package main

import (
	"math"
	"testing"
)

// TestTailPercentileRule pins the reporting rule: the highest percentile,
// capped at the one asked for, with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99},
		{1000, 99},
		{999, 98.9},
		{500, 98},
		{429, 97.6},
		{100, 90},
		{20, 50},
		{19, 50},
		{0, 50},
	} {
		if got := tailPercentile(c.n, 99); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n >= 2*tailSamples {
			p := tailPercentile(c.n, 99)
			if beyond := float64(c.n) * (1 - p/100); beyond < tailSamples-1e-9 {
				t.Errorf("n=%d: p%v leaves %.2f samples beyond it, want >= %d", c.n, p, beyond, tailSamples)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 500.5}, {99, 990.01}, {100, 1000}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("quantile sorted its input in place")
	}
	p, v := tail(xs[:500], 99)
	if p != 98 || math.Abs(v-quantile(xs[:500], 98)) > 1e-9 {
		t.Errorf("tail over 500 samples = p%v %v", p, v)
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("quantile(nil) = %v", got)
	}
}

// TestSearchLadder checks the ladder search: the highest sustained rung,
// found by bisection in at most ceil(log2(rungs)) probes beyond the
// nominal pass, and 0 when the nominal rung already fails.
func TestSearchLadder(t *testing.T) {
	rungs := geometric(10, 1.5, 9)
	for _, limit := range []float64{0, 10, 14, 40, 100, 1e9} {
		probes := 0
		probe := func(rate float64) (rungVerdict, error) {
			probes++
			return rungVerdict{Rate: rate, Sustained: rate <= limit}, nil
		}
		base := rungVerdict{Rate: rungs[0], Sustained: rungs[0] <= limit}
		got, _, err := searchLadder(rungs, base, probe)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, r := range rungs {
			if r <= limit {
				want = r
			}
		}
		if got != want || probes > 4 {
			t.Errorf("limit %v: sustainable %v after %d probes, want %v", limit, got, probes, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1 + float64(i)/10 // a backlog that ends at 10.9 ms
	}
	if v := verdict(5, lat, 11); !v.Sustained || v.P != 90 {
		t.Fatalf("pass within the limit: %+v", v)
	}
	if v := verdict(5, lat, 9); v.Sustained {
		t.Fatalf("backlog past the limit sustained: %+v", v)
	}
	if v := verdict(5, nil, 9); v.Sustained {
		t.Fatalf("empty pass sustained: %+v", v)
	}
}
