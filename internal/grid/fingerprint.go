package grid

import (
	"crypto/sha256"
	"encoding/hex"
)

// Fingerprint returns a stable SHA-256 content address of the grid: name,
// metric, node positions, and arcs, hashed in the canonical Encode order.
// Two grids with identical topology and geometry share a fingerprint, so
// model artifacts in the registry can be matched to the exact grid they
// were trained on across process restarts, and a served plan's trace names
// the grid it ran on. The grid is encoded on the first call only: later
// calls return the memoized digest without allocating.
func (g *Grid) Fingerprint() string {
	g.fpOnce.Do(func() {
		h := sha256.New()
		// Encode is deterministic (nodes by ID, arcs in adjacency order)
		// and writing to a hash cannot fail.
		_ = Encode(h, g)
		g.fp = hex.EncodeToString(h.Sum(nil))
	})
	return g.fp
}
