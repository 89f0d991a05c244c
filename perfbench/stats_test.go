package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 60}}, 70},
		// Three quorum legs sent in parallel: they overlap, so the caller
		// was blocked for their union [10, 50), not the sum of 85.
		{"overlapping multicast legs", []interval{{10, 40}, {15, 50}, {20, 40}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside the parent", []interval{{200, 300}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNetSelfChargesOnlyTheSlowestLeg(t *testing.T) {
	legs := []time.Duration{10 * time.Microsecond, 40 * time.Microsecond, 25 * time.Microsecond}
	if got := netSelf(100*time.Microsecond, legs); got != 60*time.Microsecond {
		t.Fatalf("netSelf = %v, want 60µs (call minus the slowest leg's serve)", got)
	}
	if got := netSelf(100*time.Microsecond, nil); got != 100*time.Microsecond {
		t.Fatalf("netSelf with no joined serve = %v, want the whole call", got)
	}
	if got := netSelf(30*time.Microsecond, legs); got != 0 {
		t.Fatalf("netSelf = %v, want 0 when a serve outlasts the call", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{100, 0.90, true, 90},
		{0, 0.50, false, 0},
	}
	for _, c := range cases {
		xs := seq(c.n)
		got, ok := percentile(xs, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if c.n > 0 && xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestWindowedPercentileIgnoresOneStalledWindow(t *testing.T) {
	// Three windows of 1000 samples each; the middle one holds a stall.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if i%90 == 0 {
				v = 5
			}
			if w == 1 && i%20 == 0 {
				v = 500
			}
			xs = append(xs, v)
		}
	}
	got, ok := windowedPercentile(xs, 0.99)
	if !ok || got != 5 {
		t.Fatalf("windowedPercentile = %g, %v; want 5, true", got, ok)
	}
	if _, ok := windowedPercentile(xs[:999], 0.99); ok {
		t.Fatal("windowedPercentile accepted 999 samples for a p99")
	}
}

func TestMedianAndWindowRates(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	t0 := time.Now()
	edges := []time.Time{t0, t0.Add(time.Second), t0.Add(3 * time.Second)}
	ts := []time.Time{t0, t0.Add(1), t0.Add(2), t0.Add(time.Second + 5), t0.Add(4 * time.Second)}
	rates := windowRates(ts, edges)
	if len(rates) != 2 || rates[0] != 3 || rates[1] != 0.5 {
		t.Fatalf("windowRates = %v, want [3 0.5] (the event after the last edge dropped)", rates)
	}
}

func TestWindowOf(t *testing.T) {
	t0 := time.Now()
	edges := []time.Time{t0, t0.Add(10), t0.Add(20)}
	cases := []struct {
		at   time.Duration
		want int
	}{{-1, -1}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, -1}, {25, -1}}
	for _, c := range cases {
		if got := windowOf(edges, t0.Add(c.at)); got != c.want {
			t.Errorf("windowOf(+%d) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestQuietWindowsKeepsAtLeastHalf(t *testing.T) {
	got := quietWindows([]float64{0, 0.01, 0.2, 0.03, 0.5})
	want := []bool{true, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiet windows = %v, want %v", got, want)
		}
	}
	// Only one window is quiet: the least-stolen half (3 of 5) is kept.
	got = quietWindows([]float64{0.3, 0.05, 0.2, 0.01, 0.5})
	want = []bool{false, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiet windows = %v, want %v", got, want)
		}
	}
}
