package main

import (
	"testing"
	"time"
)

func TestReferenceSliceAllocatesNothing(t *testing.T) {
	for _, computeOnly := range []bool{false, true} {
		c := newHostClock(computeOnly)
		if allocs := testing.AllocsPerRun(20, func() { c.measure() }); allocs != 0 {
			t.Errorf("reference slice (compute only: %v) allocates %v times per run", computeOnly, allocs)
		}
		c.close()
	}
}

func TestFactorsUseTheSlicesAroundEachSegment(t *testing.T) {
	ms := time.Millisecond
	// A steady host at twice the nominal slice time halves every segment.
	f := factors(nominalRef, []time.Duration{2 * nominalRef, 2 * nominalRef, 2 * nominalRef})
	if len(f) != 2 || f[0] != 0.5 || f[1] != 0.5 {
		t.Fatalf("factors on a steady host = %v, want [0.5 0.5]", f)
	}
	// One disturbed slice does not move the factor of its neighbours.
	s := []time.Duration{10 * ms, 10 * ms, 10 * ms, 90 * ms, 10 * ms, 10 * ms, 10 * ms}
	for k, v := range factors(nominalRef, s) {
		if want := float64(nominalRef) / float64(10*ms); v != want {
			t.Errorf("segment %d factor %v, want %v", k, v, want)
		}
	}
}
