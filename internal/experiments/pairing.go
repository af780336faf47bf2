package experiments

import "github.com/routeplanning/mamorl/internal/stats"

// PairedObjectives extracts seed-aligned objective samples from two
// evaluations of the same Params: for every run index where BOTH
// algorithms found the destination, it emits that run's T_total and
// F_total from each side, in run order. The returned slices are therefore
// equal-length and index-aligned by construction — the precondition
// stats.PairedTTest needs.
//
// This exists because each algorithm's found runs alone cannot express
// pairing: two algorithms failing on different seeds find equally many
// runs, but zipping them in order misaligns seeds, which a count check
// cannot catch.
func PairedObjectives(a, b RunStats) (aT, bT, aF, bF []float64) {
	n := len(a.PerRun)
	if len(b.PerRun) < n {
		n = len(b.PerRun)
	}
	for i := 0; i < n; i++ {
		if !a.PerRun[i].Found || !b.PerRun[i].Found {
			continue
		}
		aT = append(aT, a.PerRun[i].TTotal)
		bT = append(bT, b.PerRun[i].TTotal)
		aF = append(aF, a.PerRun[i].FTotal)
		bF = append(bF, b.PerRun[i].FTotal)
	}
	return aT, bT, aF, bF
}

// PairedTTestT runs the paired t-test on the seed-aligned T_total samples
// of two evaluations. ok is false when fewer than two run indices were
// completed by both algorithms — the test is then undefined and callers
// must skip it rather than fabricate a pairing.
func PairedTTestT(a, b RunStats) (stats.TTestResult, bool) {
	aT, bT, _, _ := PairedObjectives(a, b)
	if len(aT) < 2 {
		return stats.TTestResult{}, false
	}
	res, err := stats.PairedTTest(aT, bT)
	if err != nil {
		return stats.TTestResult{}, false
	}
	return res, true
}
