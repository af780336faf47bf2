package core

import (
	"fmt"
	"math"

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

// --- Joint-state table ------------------------------------------------------
//
// stateTable is everything an exact planner learns, keyed by joint state:
// Lemma 1's P tables (the Teammate Module's anticipated action
// distributions) and Lemma 2's Q tables (the Learning Module's values).
// Each joint state learned gets one dense slot index, so a step hashes a
// joint state once however many assets and reward components it reads.
// A slot holds one cell per asset j: j's stored action distribution with
// its argmax, and asset j's Q row. All observers share the distributions:
// every asset sees the same observations during training, so the
// per-observer P tables of Equation 5 coincide (DESIGN.md §2); Lemma 1's
// accounting (the PTable* functions below) still reports the paper's full
// per-reward sizes. What was never written reads as the worked examples'
// uniform defaults: 1/|A_j(s)| per teammate action with argmax 0 (Section
// 3.2.1), 1/Π_j |A_j(s)| per Q value (Section 3.2.2). Only writes store,
// so the entry counts are what was learned.
type stateTable struct {
	n     int              // cells per slot: the team size
	index map[uint64]int32 // joint-state key -> slot
	// chunks hold the slots, slotChunk to a chunk and n cells to a slot.
	// A full chunk is followed by a fresh one, never regrown, so a slot's
	// cells stay where add put them.
	chunks [][]stateCell
	// pEntries counts stored distributions, qPairs stored (s, a) pairs.
	pEntries, qPairs int
	// pArena and qArena are the chunks new distributions and Q rows are
	// carved from.
	pArena []float64
	qArena []qEntry
	// uniform[k] is the read-only uniform distribution over k actions
	// that dist returns for a distribution never updated.
	uniform [][]float64
}

// stateCell is asset j's part of one slot.
type stateCell struct {
	dist []float64 // j's action distribution; nil until first updated
	row  qRow      // asset j's Q row; nil until first written
	best int32     // the argmax of dist (first on ties), 0 while dist is nil
}

// slot is one joint state's cells, indexed by asset. The nil slot of a
// state never added reads as all defaults.
type slot []stateCell

const (
	// slotChunk is how many slots one chunk holds: 28 KiB at |N| = 2.
	slotChunk = 256
	// pArenaChunk is how many probabilities one arena chunk holds (32
	// KiB): a hundred or more distributions at Table 6's action counts.
	pArenaChunk = 4096
	// qArenaChunk is how many Q entries one arena chunk holds (32 KiB),
	// and qRowCap the room a new row is carved with: learned states hold
	// 1.5–1.8 entries on average at Table 6's exact shapes.
	qArenaChunk = 1024
	qRowCap     = 2
)

func newStateTable(n int) *stateTable {
	return &stateTable{n: n, index: make(map[uint64]int32)}
}

// at returns the slot of joint state sKey, or nil if it was never added.
func (t *stateTable) at(sKey uint64) slot {
	if s, ok := t.index[sKey]; ok {
		return t.slot(s)
	}
	return nil
}

// add returns the slot of joint state sKey, adding it if new.
func (t *stateTable) add(sKey uint64) slot {
	s, ok := t.index[sKey]
	if !ok {
		s = int32(len(t.index))
		t.index[sKey] = s
		if s%slotChunk == 0 {
			t.chunks = append(t.chunks, make([]stateCell, slotChunk*t.n))
		}
	}
	return t.slot(s)
}

func (t *stateTable) slot(s int32) slot {
	start := int(s%slotChunk) * t.n
	return t.chunks[s/slotChunk][start : start+t.n : start+t.n]
}

// best returns the argmax of teammate j's distribution.
func (s slot) best(j int) int {
	if s == nil {
		return 0
	}
	return int(s[j].best)
}

// row returns asset i's Q row.
func (s slot) row(i int) qRow {
	if s == nil {
		return nil
	}
	return s[i].row
}

// dist returns teammate j's distribution over nActions actions in slot s:
// the learned one, or the shared uniform default. Callers must not modify
// it.
func (t *stateTable) dist(s slot, j, nActions int) []float64 {
	if s != nil && s[j].dist != nil {
		return s[j].dist
	}
	for len(t.uniform) <= nActions {
		t.uniform = append(t.uniform, nil)
	}
	if t.uniform[nActions] == nil {
		u := make([]float64, nActions)
		for i := range u {
			u[i] = 1 / float64(nActions)
		}
		t.uniform[nActions] = u
	}
	return t.uniform[nActions]
}

// update applies Equation 5 to teammate j's distribution in slot s: the
// observed action index gains probability mass factor * (sum of the
// others); every other action is scaled by (1 - factor). The update
// preserves normalization exactly, and records the argmax as it writes.
func (t *stateTable) update(s slot, j, nActions, observed int, factor float64) {
	c := &s[j]
	if c.dist == nil {
		c.dist = carve(&t.pArena, nActions, nActions, pArenaChunk)
		copy(c.dist, t.dist(nil, j, nActions))
		t.pEntries++
	}
	d := c.dist
	rest := 0.0
	for _, v := range d[:observed] {
		rest += v
	}
	for _, v := range d[observed+1:] {
		rest += v
	}
	d[observed] += factor * rest
	keep := 1 - factor
	best, bestV := 0, math.Inf(-1)
	for i := range d {
		if i != observed {
			d[i] *= keep
		}
		if d[i] > bestV {
			best, bestV = i, d[i]
		}
	}
	c.best = int32(best)
}

// set stores v as asset i's Q(s, a) in slot s: an existing entry is
// rewritten in place, a new one appended to the row.
func (t *stateTable) set(s slot, i int, aKey uint64, v perReward) {
	c := &s[i]
	for k := range c.row {
		if c.row[k].aKey == aKey {
			c.row[k].v = v
			return
		}
	}
	if c.row == nil {
		c.row = carve(&t.qArena, 0, qRowCap, qArenaChunk)
	}
	c.row = append(c.row, qEntry{aKey, v})
	t.qPairs++
}

// carve returns a fresh slice of length n and capacity c from *arena,
// starting a new chunk of max(chunk, c) elements when fewer than c are
// left. Carved slices are capped, so none grows into the next, and keep
// their chunk alive: a full chunk is replaced, never regrown in place.
func carve[T any](arena *[]T, n, c, chunk int) []T {
	if cap(*arena)-len(*arena) < c {
		*arena = make([]T, 0, max(chunk, c))
	}
	start := len(*arena)
	*arena = (*arena)[:start+c]
	return (*arena)[start : start+n : start+c]
}

// qRow holds one joint state's Q entries for one asset, one per joint
// action in the order they were first written. The nil row of a pair
// never written reads as all defaults. Learned states hold a handful of
// joint actions each, so a scan of a short slice beats a hash map per
// state in both time and bytes.
type qRow []qEntry

// qEntry is one stored (s, a) pair of a row: the joint-action key and its
// value per reward component. Each entry carries every reward component of
// Lemma 2's per-reward tables, because the LM update (Equation 6) always
// writes them together.
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
// for a pair never written.
func (r qRow) get(aKey uint64, def float64) perReward {
	for k := range r {
		if r[k].aKey == aKey {
			return r[k].v
		}
	}
	return uniform(def)
}

// --- Own-action reads ---------------------------------------------------------
//
// Alone, or past the threshold T, Equation 8 reads one Q entry per own
// action of asset i with every teammate at its argmax action, and
// Equation 6's max runs over the same profile at s'. Joint-action keys are
// mixed-radix (jointActionKey), so those profiles' keys are base + a·stride
// for own actions a < counts[i], and no other key has that form: a row's
// entries for them are found in one pass, and every other own action
// reads the default.

// ownProfile returns the base and stride of asset i's own-action keys with
// each teammate j at profile[j] (profile[i] is ignored).
func ownProfile(i int, profile, counts []int) (base, stride uint64) {
	place := uint64(1) // the place value of asset j's digit
	for j, c := range counts {
		if j == i {
			stride = place
		} else {
			base += uint64(profile[j]) * place
		}
		place *= uint64(c)
	}
	return base, stride
}

// ownAction returns the own action whose key, at (base, stride), is aKey,
// and whether there is one below nOwn.
func ownAction(aKey, base, stride uint64, nOwn int) (int, bool) {
	off := aKey - base
	if aKey < base || off%stride != 0 || off/stride >= uint64(nOwn) {
		return 0, false
	}
	return int(off / stride), true
}

// ownIndex locates, for one call, a row's entries of asset i's own actions
// at one teammate profile: entry[a] is the row index of own action a's
// entry where stamp[a] equals gen. A load stamps only the row's entries,
// so no call touches all |A_i| own actions; an older stamp reads as the
// default.
type ownIndex struct {
	entry []int32
	stamp []uint32
	gen   uint32
}

// load indexes row's entries of asset i's own actions with the teammates
// at profile.
func (x *ownIndex) load(row qRow, i int, profile, counts []int) {
	if x.gen++; x.gen == 0 { // wrapped: clear the stamps it could match
		clear(x.stamp)
		x.gen = 1
	}
	if len(x.stamp) < counts[i] {
		x.entry, x.stamp = make([]int32, counts[i]), make([]uint32, counts[i])
	}
	base, stride := ownProfile(i, profile, counts)
	for k := range row {
		if a, ok := ownAction(row[k].aKey, base, stride, counts[i]); ok {
			x.entry[a], x.stamp[a] = int32(k), x.gen
		}
	}
}

// value returns own action a's Q values from the loaded row, each
// multiplied by scale, or def (scaled by the caller) for an action the
// row does not hold.
func (x *ownIndex) value(row qRow, a int, scale float64, def perReward) perReward {
	if x.stamp[a] != x.gen {
		return def
	}
	v := row[x.entry[a]].v
	for c := range v {
		v[c] = scale * v[c]
	}
	return v
}

// maxOwn returns, per reward component, the max of the row's Q values over
// asset i's own actions with each teammate j at profile[j], reading def
// for actions the row does not hold: Equation 6's max over next actions.
// It reads only the row's entries of those actions.
func maxOwn(row qRow, i int, profile, counts []int, def float64) perReward {
	base, stride := ownProfile(i, profile, counts)
	maxQ, found := uniform(math.Inf(-1)), 0
	for k := range row {
		if _, ok := ownAction(row[k].aKey, base, stride, counts[i]); ok {
			found++
			maxQ = maxEach(maxQ, row[k].v)
		}
	}
	if found < counts[i] {
		// def > 0 takes part, so every maximum is positive and the order
		// the values are met in cannot change its bits.
		return maxEach(maxQ, uniform(def))
	}
	// The row holds every own action: take the max again in own-action
	// order, so that equal maxima of opposite zero signs resolve as a
	// max over all own actions in order resolves them.
	maxQ = uniform(math.Inf(-1))
	for a := 0; a < counts[i]; a++ {
		maxQ = maxEach(maxQ, row.get(base+uint64(a)*stride, def))
	}
	return maxQ
}

// maxEach returns m with each component raised to q's where q's is
// greater.
func maxEach(m, q perReward) perReward {
	for c := range m {
		if q[c] > m[c] {
			m[c] = q[c]
		}
	}
	return m
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
