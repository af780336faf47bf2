package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// --- Joint-state and joint-action keys ------------------------------------
//
// The TDMDP state is the tuple of all asset locations (Section 3.1-a); we
// key it with a mixed-radix encoding over |V|. Joint actions are keyed the
// same way over each asset's per-node action count. Both encodings must fit
// uint64 for the exact solver to run at all — instances beyond that are far
// past the memory budget anyway.

// stateKeyer encodes joint locations.
type stateKeyer struct {
	numNodes uint64
	n        int
}

func newStateKeyer(numNodes, n int) (stateKeyer, error) {
	k := stateKeyer{numNodes: uint64(numNodes), n: n}
	// Check |V|^n fits in uint64.
	limit := math.Pow(float64(numNodes), float64(n))
	if limit > float64(math.MaxUint64)/2 {
		return k, fmt.Errorf("core: joint state space |V|^N = %.3g does not fit a table key", limit)
	}
	return k, nil
}

func (k stateKeyer) key(locs []grid.NodeID) uint64 {
	var key uint64
	for i := k.n - 1; i >= 0; i-- {
		key = key*k.numNodes + uint64(locs[i])
	}
	return key
}

// jointActionKey encodes per-asset action indices under per-asset counts.
func jointActionKey(idx []int, counts []int) uint64 {
	var key uint64
	for i := len(idx) - 1; i >= 0; i-- {
		key = key*uint64(counts[i]) + uint64(idx[i])
	}
	return key
}

// --- P table (Teammate Module storage) -------------------------------------
//
// P[j][sKey] is the probability distribution over teammate j's actions at
// joint state s. States never updated read as the uniform default
// 1/|A_j(s)| (the initialization the paper's worked example uses); only
// update stores an entry, so the entry count is what was learned. All
// observers see the same observations, so the per-observer P_i tables of
// Equation 5 coincide and are stored once; Lemma 1's accounting (PTable*
// functions below) still reports the paper's full per-reward sizes.
type pTable struct {
	dists map[uint64][]float64 // per teammate: sKey -> distribution
	// arena is the chunk stored distributions are carved from. Stored
	// slices keep their chunk alive, so a full chunk is replaced by a
	// fresh one, never regrown in place.
	arena []float64
	// uniform[n] is the read-only uniform distribution over n actions
	// that dist returns for states never updated.
	uniform [][]float64
}

// pArenaChunk is how many probabilities one arena chunk holds (32 KiB): a
// hundred or more distributions at Table 6's action counts.
const pArenaChunk = 4096

func newPTable() *pTable {
	return &pTable{dists: make(map[uint64][]float64)}
}

// dist returns the distribution over nActions actions of a teammate at
// state sKey: the learned one, or the shared uniform default. Callers must
// not modify it.
func (p *pTable) dist(sKey uint64, nActions int) []float64 {
	if d, ok := p.dists[sKey]; ok && len(d) == nActions {
		return d
	}
	for len(p.uniform) <= nActions {
		p.uniform = append(p.uniform, nil)
	}
	if p.uniform[nActions] == nil {
		u := make([]float64, nActions)
		for i := range u {
			u[i] = 1 / float64(nActions)
		}
		p.uniform[nActions] = u
	}
	return p.uniform[nActions]
}

// update applies Equation 5: the observed action index gains probability
// mass factor * (sum of the others); every other action is scaled by
// (1 - factor). The update preserves normalization exactly.
func (p *pTable) update(sKey uint64, nActions, observed int, factor float64) {
	d, ok := p.dists[sKey]
	if !ok || len(d) != nActions {
		d = p.carve(nActions)
		copy(d, p.dist(sKey, nActions))
		p.dists[sKey] = d
	}
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

// carve returns n fresh probabilities from the arena, capped so that no
// distribution can grow into the next.
func (p *pTable) carve(n int) []float64 {
	if cap(p.arena)-len(p.arena) < n {
		p.arena = make([]float64, 0, max(pArenaChunk, n))
	}
	start := len(p.arena)
	p.arena = p.arena[:start+n]
	return p.arena[start : start+n : start+n]
}

// entries returns the number of stored state entries.
func (p *pTable) entries() int { return len(p.dists) }

// --- Q table (Learning Module storage) -------------------------------------
//
// Each asset has one qTable that holds Lemma 2's per-reward tables side by
// side: the entry Q[sKey][aKey] carries every reward component of one
// (s, a) pair, because the LM update (Equation 6) always writes them
// together. Readers look a state's row up once and then read it by joint
// action, so one joint state costs one hash however many components and
// joint actions are read. Unseen pairs read as the lazy uniform default
// 1/Π_i |A_i(s)| from the worked example in Section 3.2.2.
type qTable map[uint64]qRow

// qRow holds one joint state's entries, one per joint action in the order
// they were first written. The nil row of a state never updated reads as
// all defaults. Learned states hold a handful of joint actions each, so a
// scan of a short slice beats a hash map per state in both time and bytes.
type qRow []qEntry

// qEntry is one stored (s, a) pair of a row: the joint-action key and its
// value per reward component.
type qEntry struct {
	aKey uint64
	v    perReward
}

// perReward holds one value per reward component (exploration, time,
// fuel): a Q entry, a reward vector, or the scalarization weights.
type perReward [NumRewardComponents]float64

// uniform returns a perReward with every component at v.
func uniform(v float64) perReward {
	var r perReward
	for c := range r {
		r[c] = v
	}
	return r
}

// get returns Q(s, a) for the row's state s, with every component at def
// for a pair never updated.
func (r qRow) get(aKey uint64, def float64) perReward {
	for k := range r {
		if r[k].aKey == aKey {
			return r[k].v
		}
	}
	return uniform(def)
}

// set stores v as Q(s, a). row is sKey's row as the caller read it: an
// existing entry is rewritten in place, and a new one is appended and the
// row stored back.
func (q qTable) set(sKey uint64, row qRow, aKey uint64, v perReward) {
	for k := range row {
		if row[k].aKey == aKey {
			row[k].v = v
			return
		}
	}
	q[sKey] = append(row, qEntry{aKey, v})
}

// ownValues returns in buf[:counts[i]] the row's Q(s, a) for every own
// action of asset i, with each teammate j's action fixed at profile[j]
// (profile[i] is ignored). One pass over the row fills what it stores;
// every other action reads def. Joint-action keys are mixed-radix
// (jointActionKey), so those profiles' keys are base + a·stride for own
// actions a < counts[i], and no other key has that form.
func (r qRow) ownValues(buf []perReward, i int, profile, counts []int, def float64) []perReward {
	var base, stride uint64
	place := uint64(1) // the place value of asset j's digit
	for j, c := range counts {
		if j == i {
			stride = place
		} else {
			base += uint64(profile[j]) * place
		}
		place *= uint64(c)
	}
	buf = slices.Grow(buf[:0], counts[i])[:counts[i]]
	d := uniform(def)
	for a := range buf {
		buf[a] = d
	}
	span := stride * uint64(counts[i])
	for k := range r {
		if off := r[k].aKey - base; r[k].aKey >= base && off < span && off%stride == 0 {
			buf[off/stride] = r[k].v
		}
	}
	return buf
}

// entries counts stored values, NumRewardComponents per stored (s, a)
// pair: what Lemma 2's separate per-reward tables would hold.
func (q qTable) entries() int {
	n := 0
	for _, r := range q {
		n += len(r)
	}
	return n * NumRewardComponents
}

// --- Lemma 1 & 2: theoretical dense table sizes -----------------------------

// NumRewardComponents is the number of objectives (exploration, time,
// fuel), and thus of the per-reward P and Q tables Lemmata 1-2 count.
const NumRewardComponents = 3

// bytesPerEntry is the size of one stored table value.
const bytesPerEntry = 8

// PTableEntries returns Lemma 1's |P| = |V|^|N| × |A| × sp for one reward
// component, as a float64 because realistic instances overflow integers
// (that is the lemma's point).
func PTableEntries(numNodes, numAssets, numActions, maxSpeed int) float64 {
	return math.Pow(float64(numNodes), float64(numAssets)) *
		float64(numActions) * float64(maxSpeed)
}

// PTableBytes returns the dense memory footprint of all per-reward P tables.
func PTableBytes(numNodes, numAssets, numActions, maxSpeed int) float64 {
	return PTableEntries(numNodes, numAssets, numActions, maxSpeed) *
		bytesPerEntry * NumRewardComponents
}

// QTableEntries returns Lemma 2's |Q| = (|V| × |A| × sp)^|N| for one reward
// component.
func QTableEntries(numNodes, numAssets, numActions, maxSpeed int) float64 {
	return math.Pow(float64(numNodes)*float64(numActions)*float64(maxSpeed),
		float64(numAssets))
}

// QTableBytes returns the dense footprint of all per-reward Q tables.
func QTableBytes(numNodes, numAssets, numActions, maxSpeed int) float64 {
	return QTableEntries(numNodes, numAssets, numActions, maxSpeed) *
		bytesPerEntry * NumRewardComponents
}

// InstanceActions returns the |A| to plug into the lemmas for a scenario:
// the action count at the grid's maximum out-degree with the team's top
// speed (every neighbor × every speed + wait).
func InstanceActions(g *grid.Grid, team vessel.Team) int {
	return sim.ActionCount(g.MaxOutDegree(), team.MaxSpeedOver())
}

// FormatBytes renders a byte count with binary prefixes, for bottleneck
// reports. TB is the largest unit so that petabyte-scale lemma sizes print
// the way the paper's Table 6 does ("17000 TB").
func FormatBytes(b float64) string {
	format := func(v float64, unit string) string {
		if v >= 1000 {
			return fmt.Sprintf("%.0f %s", v, unit)
		}
		return fmt.Sprintf("%.4g %s", v, unit)
	}
	switch {
	case b >= 1<<40:
		return format(b/(1<<40), "TB")
	case b >= 1<<30:
		return format(b/(1<<30), "GB")
	case b >= 1<<20:
		return format(b/(1<<20), "MB")
	case b >= 1<<10:
		return format(b/(1<<10), "KB")
	default:
		return format(b, "B")
	}
}
