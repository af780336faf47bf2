package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// --- Oracle: map-based P and Q tables ----------------------------------------
//
// The oracle keeps P and Q the way the planner kept them before the
// joint-state table: per teammate, a map from joint-state key to a stored
// distribution; per asset, a map from joint-state key to a map of Q
// entries. It is the reference the table's tests compare against.

// oracleP is one teammate's P table. States never updated read as uniform.
type oracleP map[uint64][]float64

func (p oracleP) dist(sKey uint64, nActions int) []float64 {
	if d, ok := p[sKey]; ok {
		return d
	}
	u := make([]float64, nActions)
	for i := range u {
		u[i] = 1 / float64(nActions)
	}
	return u
}

// update applies Equation 5.
func (p oracleP) update(sKey uint64, nActions, observed int, factor float64) {
	d := p.dist(sKey, nActions)
	p[sKey] = d
	rest := 0.0
	for i, v := range d {
		if i != observed {
			rest += v
		}
	}
	for i := range d {
		if i == observed {
			d[i] += factor * rest
		} else {
			d[i] *= 1 - factor
		}
	}
}

// oracleQ is one asset's Q table. Pairs never written read def.
type oracleQ map[uint64]map[uint64]perReward

func (q oracleQ) get(sKey, aKey uint64, def float64) perReward {
	if v, ok := q[sKey][aKey]; ok {
		return v
	}
	return uniform(def)
}

func (q oracleQ) set(sKey, aKey uint64, v perReward) {
	if q[sKey] == nil {
		q[sKey] = map[uint64]perReward{}
	}
	q[sKey][aKey] = v
}

// argmax returns the index of the maximum element (first on ties).
func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// oracleOwn returns Q at each own action of asset i with every teammate j
// at profile[j], by one get per joint-action key.
func oracleOwn(get func(aKey uint64) perReward, i int, profile, counts []int) []perReward {
	idx := append([]int(nil), profile...)
	vals := make([]perReward, counts[i])
	for a := range vals {
		idx[i] = a
		vals[a] = get(jointActionKey(idx, counts))
	}
	return vals
}

// oracleMax is Equation 6's max over own actions taken over every own
// action's value in own-action order.
func oracleMax(vals []perReward) perReward {
	m := uniform(math.Inf(-1))
	for _, q := range vals {
		for c := range m {
			if q[c] > m[c] {
				m[c] = q[c]
			}
		}
	}
	return m
}

// sameBits reports whether a and b hold the same bits, so that -0 and +0
// differ.
func sameBits(a, b perReward) bool {
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// tableOps drives a stateTable and the oracle through the operations data
// encodes, and fails at the first read on which they differ. data[0] picks
// the team size, 1 to 3; every further 6 bytes are one operation: its
// kind, a joint-state key below 300 (2 bytes), an asset, and two operands.
// Each asset's action count is a fixed function of the key, as a joint
// state fixes it in a planner.
func tableOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := int(data[0])%3 + 1
	tab := newStateTable(n)
	ps, qs := make([]oracleP, n), make([]oracleQ, n)
	for j := range ps {
		ps[j], qs[j] = oracleP{}, oracleQ{}
	}
	counts, profile := make([]int, n), make([]int, n)
	var own ownIndex
	for op := 1; op+6 <= len(data); op += 6 {
		b := data[op : op+6]
		sKey := uint64(binary.LittleEndian.Uint16(b[1:])) % 300
		j := int(b[3]) % n
		total := 1
		for k := range counts {
			counts[k] = 1 + int((sKey*7+uint64(k)*3)%6)
			total *= counts[k]
		}
		def := qDefault(counts)
		switch b[0] % 4 {
		case 0: // Equation 5; factors 0 and 1 leave ties and one-hot distributions
			obs, factor := int(b[4])%counts[j], float64(b[5]%11)/10
			tab.update(tab.add(sKey), j, counts[j], obs, factor)
			ps[j].update(sKey, counts[j], obs, factor)
			if got, want := tab.at(sKey).best(j), argmax(ps[j][sKey]); got != want {
				t.Fatalf("op %d: stored argmax %d, argmax of %v is %d", op/6, got, ps[j][sKey], want)
			}
		case 1: // a Q write; small integers repeat values and give both zeros
			aKey := uint64(b[4]) % uint64(total)
			v := perReward{float64(int8(b[5])) / 4, float64(b[5] % 5), float64(b[5] % 3)}
			if b[5]&0x80 != 0 {
				v[2] = -v[2]
			}
			tab.set(tab.add(sKey), j, aKey, v)
			qs[j].set(sKey, aKey, v)
		case 2: // every asset's reads, of states never written too
			s := tab.at(sKey)
			aKey := uint64(b[4]) % uint64(total)
			for k := 0; k < n; k++ {
				want := ps[k].dist(sKey, counts[k])
				got := tab.dist(s, k, counts[k])
				for x := range want {
					if len(got) != len(want) || math.Float64bits(got[x]) != math.Float64bits(want[x]) {
						t.Fatalf("op %d: P[%d](%d) = %v, oracle %v", op/6, k, sKey, got, want)
					}
				}
				if s.best(k) != argmax(want) {
					t.Fatalf("op %d: argmax P[%d](%d) = %d, oracle %d", op/6, k, sKey, s.best(k), argmax(want))
				}
				if got, want := s.row(k).get(aKey, def), qs[k].get(sKey, aKey, def); !sameBits(got, want) {
					t.Fatalf("op %d: Q[%d](%d, %d) = %v, oracle %v", op/6, k, sKey, aKey, got, want)
				}
			}
		case 3: // asset j's own actions at a profile drawn from the operands
			for k := range profile {
				profile[k] = int(b[4]>>(2*k)) % counts[k]
			}
			row := tab.at(sKey).row(j)
			want := oracleOwn(func(aKey uint64) perReward { return qs[j].get(sKey, aKey, def) }, j, profile, counts)
			own.load(row, j, profile, counts)
			scale := float64(b[5]) / 255
			for a := range want {
				w := want[a]
				for c := range w {
					w[c] = scale * w[c]
				}
				if got := own.value(row, a, scale, uniform(scale*def)); !sameBits(got, w) {
					t.Fatalf("op %d: own action %d of asset %d at %v = %v, oracle %v", op/6, a, j, profile, got, w)
				}
			}
			if got, w := maxOwn(row, j, profile, counts, def), oracleMax(want); !sameBits(got, w) {
				t.Fatalf("op %d: max over own actions of asset %d at %v = %v, oracle %v", op/6, j, profile, got, w)
			}
		}
		pEntries, qPairs := 0, 0
		for k := range ps {
			pEntries += len(ps[k])
			for _, r := range qs[k] {
				qPairs += len(r)
			}
		}
		if tab.pEntries != pEntries || tab.qPairs != qPairs {
			t.Fatalf("op %d: %d P and %d Q entries stored, oracle %d and %d", op/6, tab.pEntries, tab.qPairs, pEntries, qPairs)
		}
	}
}

// TestStateTableMatchesOracle drives the joint-state table and the map
// oracle through random operation sequences over 300 keys, for teams of
// one to three.
func TestStateTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := byte(0); n < 3; n++ {
		for run := 0; run < 4; run++ {
			data := make([]byte, 1+6*4000)
			rng.Read(data)
			data[0] = n
			tableOps(t, data)
		}
	}
}

// FuzzStateTable is TestStateTableMatchesOracle on arbitrary operation
// sequences.
func FuzzStateTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 5, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 7, 0, 1, 3, 0x83, 3, 7, 0, 1, 0xff, 9})
	f.Add([]byte{2, 0, 9, 1, 2, 4, 10, 1, 9, 1, 2, 5, 1, 2, 9, 1, 0, 0, 0})
	f.Fuzz(tableOps)
}

// TestQRowMatchesMapOracle drives one asset's Q rows and a map per state
// through the same random get/set sequence: every read must agree, and so
// must the stored entry count.
func TestQRowMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := newStateTable(1)
	oracle := oracleQ{}
	const def = 0.125
	for op := 0; op < 20000; op++ {
		sKey, aKey := uint64(rng.Intn(40)), uint64(rng.Intn(24))
		want := oracle.get(sKey, aKey, def)
		if got := tab.at(sKey).row(0).get(aKey, def); got != want {
			t.Fatalf("op %d: get(%d, %d) = %v, oracle %v", op, sKey, aKey, got, want)
		}
		if rng.Intn(2) == 0 {
			v := perReward{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			tab.set(tab.add(sKey), 0, aKey, v)
			oracle.set(sKey, aKey, v)
		}
	}
	n := 0
	for _, row := range oracle {
		n += len(row)
	}
	if tab.qPairs != n {
		t.Errorf("%d pairs stored, oracle %d", tab.qPairs, n)
	}
}

// TestOwnValuesMatchesGet checks the own-action index and maxOwn against a
// get per joint-action key, for teams of one to three with the owner at
// every position and teammates at every action profile.
func TestOwnValuesMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, counts := range [][]int{{7}, {5, 7}, {7, 4}, {3, 5, 4}, {6, 2, 5}} {
		n := len(counts)
		total := 1
		for _, c := range counts {
			total *= c
		}
		// Rows holding about a third of the joint actions, in random
		// order, so every own-action read meets stored and missing keys.
		tab := newStateTable(n)
		s := tab.add(0)
		for i := 0; i < n; i++ {
			for _, k := range rng.Perm(total)[:total/3+1] {
				tab.set(s, i, uint64(k), perReward{rng.Float64(), rng.Float64(), rng.Float64()})
			}
		}
		def := qDefault(counts)
		var own ownIndex
		profile := make([]int, n)
		for i := 0; i < n; i++ {
			row := s.row(i)
			for p := 0; p < total; p++ {
				// Decode p into a profile, then test every own action.
				for j, r := 0, p; j < n; j++ {
					profile[j], r = r%counts[j], r/counts[j]
				}
				want := oracleOwn(func(aKey uint64) perReward { return row.get(aKey, def) }, i, profile, counts)
				own.load(row, i, profile, counts)
				for a, w := range want {
					if got := own.value(row, a, 1, uniform(def)); got != w {
						t.Fatalf("counts %v owner %d profile %v: own action %d = %v, get %v",
							counts, i, profile, a, got, w)
					}
				}
				if got, w := maxOwn(row, i, profile, counts, def), oracleMax(want); got != w {
					t.Fatalf("counts %v owner %d profile %v: max = %v, over gets %v", counts, i, profile, got, w)
				}
			}
		}
	}
}

// TestOwnIndexStampWrap: when the call counter wraps, no stamp left by an
// earlier call may read as the new call's.
func TestOwnIndexStampWrap(t *testing.T) {
	counts, profile := []int{4}, []int{0}
	row := qRow{{aKey: 2, v: uniform(7)}}
	var own ownIndex
	own.load(row, 0, profile, counts) // stamps own action 2 with gen 1
	own.gen = math.MaxUint32          // the next load wraps back to gen 1
	own.load(nil, 0, profile, counts)
	for a := range counts[0] {
		if got := own.value(row, a, 1, uniform(1)); got != uniform(1) {
			t.Fatalf("after the wrap own action %d reads %v from an earlier call", a, got)
		}
	}
}
