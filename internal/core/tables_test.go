package core

import (
	"math/rand"
	"testing"
)

// TestQRowMatchesMapOracle drives slice rows and a map per state through
// the same random get/set sequence: every read must agree, and so must the
// stored entry count.
func TestQRowMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := make(qTable)
	oracle := map[uint64]map[uint64]perReward{}
	const def = 0.125
	for op := 0; op < 20000; op++ {
		sKey, aKey := uint64(rng.Intn(40)), uint64(rng.Intn(24))
		want, ok := oracle[sKey][aKey]
		if !ok {
			want = uniform(def)
		}
		if got := q[sKey].get(aKey, def); got != want {
			t.Fatalf("op %d: get(%d, %d) = %v, oracle %v", op, sKey, aKey, got, want)
		}
		if rng.Intn(2) == 0 {
			v := perReward{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			q.set(sKey, q[sKey], aKey, v)
			if oracle[sKey] == nil {
				oracle[sKey] = map[uint64]perReward{}
			}
			oracle[sKey][aKey] = v
		}
	}
	n := 0
	for _, row := range oracle {
		n += len(row)
	}
	if got := q.entries(); got != n*NumRewardComponents {
		t.Errorf("entries = %d, oracle %d", got, n*NumRewardComponents)
	}
}

// TestOwnValuesMatchesGet checks the one-pass load of a row's own-action
// values against a get per joint-action key, for teams of one to three
// with the owner at every position and teammates at every action profile.
func TestOwnValuesMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, counts := range [][]int{{7}, {5, 7}, {7, 4}, {3, 5, 4}, {6, 2, 5}} {
		n := len(counts)
		total := 1
		for _, c := range counts {
			total *= c
		}
		// A row holding about a third of the joint actions, in random
		// order, so every own-action scan meets stored and missing keys.
		var row qRow
		for _, k := range rng.Perm(total)[:total/3+1] {
			row = append(row, qEntry{uint64(k), perReward{rng.Float64(), rng.Float64(), rng.Float64()}})
		}
		def := qDefault(counts)
		var buf []perReward
		profile, idx := make([]int, n), make([]int, n)
		for i := 0; i < n; i++ {
			for p := 0; p < total; p++ {
				// Decode p into a profile, then test every own action.
				for j, r := 0, p; j < n; j++ {
					profile[j], r = r%counts[j], r/counts[j]
				}
				buf = row.ownValues(buf, i, profile, counts, def)
				if len(buf) != counts[i] {
					t.Fatalf("counts %v owner %d: %d values, want %d", counts, i, len(buf), counts[i])
				}
				copy(idx, profile)
				for a := range buf {
					idx[i] = a
					if want := row.get(jointActionKey(idx, counts), def); buf[a] != want {
						t.Fatalf("counts %v owner %d profile %v: own action %d = %v, get %v",
							counts, i, profile, a, buf[a], want)
					}
				}
			}
		}
	}
}
