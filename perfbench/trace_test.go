package main

import (
	"testing"
	"time"
)

func sp(layer string, start, end int) span {
	return span{layer: layer, start: time.Duration(start), end: time.Duration(end)}
}

func TestSelfTimesSubtractCoveredInterval(t *testing.T) {
	parents := []span{
		sp("router", 0, 100),
		sp("router", 200, 250),
		sp("router", 300, 400),
	}
	children := []span{
		sp("replica", 90, 120), // runs past its parent: only 90–100 counts
		sp("replica", 10, 30),
		sp("replica", 20, 40), // overlaps the previous child: 10–40 counts once
		sp("replica", 310, 390),
		sp("replica", 500, 600), // inside no parent
	}
	got := selfTimes(parents, children)
	want := []time.Duration{60, 50, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parent %d self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestContainedPairsEachParentWithItsChild(t *testing.T) {
	parents := []span{sp("router", 0, 100), sp("router", 150, 200), sp("router", 300, 400)}
	children := []span{sp("replica", 310, 390), sp("replica", 10, 90), sp("replica", 190, 260)}
	ps, cs := contained(parents, children)
	if len(ps) != 2 || ps[0].start != 0 || cs[0].start != 10 || ps[1].start != 300 || cs[1].start != 310 {
		t.Fatalf("pairs %v / %v, want (0,10) and (300,310); the child 190–260 overruns its parent", ps, cs)
	}
	self := selfTimes(ps, cs)
	if self[0] != 20 || self[1] != 20 {
		t.Fatalf("self times %v, want [20 20]", self)
	}
}
