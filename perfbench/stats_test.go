package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} }
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2},
	} {
		if got := percentile(ten(), c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 90); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// 1000 samples: p99 is the 990th smallest, with 10 samples beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := tailCount(1000, 99); got != 10 {
		t.Errorf("tailCount(1000, 99) = %d, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
}

func TestScheduleIsSeededAndOrdered(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(5)), 1000, 500)
	b := schedule(rand.New(rand.NewSource(5)), 1000, 500)
	c := schedule(rand.New(rand.NewSource(6)), 1000, 500)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, due time %d differs: %v vs %v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("due times out of order at %d: %v after %v", i, a[i], a[i-1])
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	if last := a[len(a)-1]; last < 1990*time.Millisecond || last > 2*time.Second {
		t.Fatalf("1000 arrivals at 500/s end at %v, want just under 2s", last)
	}
}
