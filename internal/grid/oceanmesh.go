package grid

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/routeplanning/mamorl/internal/geo"
)

// Ocean meshes. The paper builds its real-world grids by meshing the world's
// oceans with Gmsh over GSHHG shoreline data, with higher mesh resolution
// near coastlines and node out-degree at most 6 (Section 4.1.1-I). Neither
// GSHHG data nor Gmsh is available here, so GenerateOceanMesh reproduces the
// *shape* of those grids procedurally:
//
//   - a synthetic coastline is drawn from seeded Gaussian land masses over
//     the region's lat/long box;
//   - ocean nodes are rejection-sampled with density increasing near the
//     coast (the paper's "greater amount of navigational adjustments
//     necessary near land");
//   - nodes are joined by nearest-neighbor edges under an out-degree cap of
//     6 until the target edge count is met, keeping the mesh connected.
//
// The presets CaribbeanGrid, NorthAmericaShoreGrid and AtlanticGrid match
// Table 3's node and edge counts exactly. See DESIGN.md §3 for why this
// substitution preserves the evaluation's behaviour.

// OceanMeshConfig controls GenerateOceanMesh.
type OceanMeshConfig struct {
	// Name labels the grid (e.g. "caribbean").
	Name string
	// Region is the lat/long box (X = longitude, Y = latitude, degrees).
	Region geo.Rect
	// Nodes is the exact |V| to produce.
	Nodes int
	// Edges is the exact undirected |E| to produce.
	Edges int
	// MaxOutDegree caps node degree; the paper's meshes use 6.
	MaxOutDegree int
	// LandMasses is the number of procedural land blobs; more blobs give a
	// more convoluted coastline. Defaults to 5 when zero.
	LandMasses int
	// CoastalBoost is the sampling density multiplier right at the coast
	// relative to open ocean. Defaults to 6 when zero.
	CoastalBoost float64
	// Seed makes generation deterministic.
	Seed int64
}

// landField models procedural land as a sum of Gaussian blobs. Field values
// above the threshold are land; the magnitude of (field - threshold) is a
// proxy for distance to the coastline.
type landField struct {
	cx, cy, amp, sx, sy []float64
	threshold           float64
}

func newLandField(rng *rand.Rand, region geo.Rect, masses int) *landField {
	lf := &landField{threshold: 0.55}
	w, h := region.Width(), region.Height()
	for i := 0; i < masses; i++ {
		// Land masses hug the box border so that the interior stays mostly
		// navigable ocean, like a coastal basin.
		var cx, cy float64
		switch rng.Intn(4) {
		case 0:
			cx, cy = region.MinX+rng.Float64()*w, region.MinY+0.15*h*rng.Float64()
		case 1:
			cx, cy = region.MinX+rng.Float64()*w, region.MaxY-0.15*h*rng.Float64()
		case 2:
			cx, cy = region.MinX+0.15*w*rng.Float64(), region.MinY+rng.Float64()*h
		default:
			cx, cy = region.MaxX-0.15*w*rng.Float64(), region.MinY+rng.Float64()*h
		}
		lf.cx = append(lf.cx, cx)
		lf.cy = append(lf.cy, cy)
		lf.amp = append(lf.amp, 0.6+0.8*rng.Float64())
		lf.sx = append(lf.sx, w*(0.08+0.12*rng.Float64()))
		lf.sy = append(lf.sy, h*(0.08+0.12*rng.Float64()))
	}
	return lf
}

func (lf *landField) value(p geo.Point) float64 {
	v := 0.0
	for i := range lf.cx {
		dx := (p.X - lf.cx[i]) / lf.sx[i]
		dy := (p.Y - lf.cy[i]) / lf.sy[i]
		v += lf.amp[i] * math.Exp(-(dx*dx+dy*dy)/2)
	}
	return v
}

// isLand reports whether p is on land.
func (lf *landField) isLand(p geo.Point) bool { return lf.value(p) > lf.threshold }

// coastCloseness is 1 at the coastline decaying to 0 in open ocean.
func (lf *landField) coastCloseness(p geo.Point) float64 {
	d := lf.threshold - lf.value(p) // >= 0 in ocean
	if d < 0 {
		d = 0
	}
	return math.Exp(-d / 0.12)
}

// GenerateOceanMesh produces a connected geodesic mesh with coastal density
// gradient, exact node count, and exact undirected edge count.
func GenerateOceanMesh(cfg OceanMeshConfig) (*Grid, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("ocean mesh: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.MaxOutDegree == 0 {
		cfg.MaxOutDegree = 6
	}
	if cfg.Edges < cfg.Nodes-1 || cfg.Edges > cfg.Nodes*cfg.MaxOutDegree/2 {
		return nil, fmt.Errorf("ocean mesh: %d edges infeasible for %d nodes, degree cap %d",
			cfg.Edges, cfg.Nodes, cfg.MaxOutDegree)
	}
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("ocean mesh: empty region %+v", cfg.Region)
	}
	if cfg.LandMasses == 0 {
		cfg.LandMasses = 5
	}
	if cfg.CoastalBoost == 0 {
		cfg.CoastalBoost = 6
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	lf := newLandField(rng, cfg.Region, cfg.LandMasses)

	// Rejection-sample ocean nodes, denser near the coast.
	pts := make([]geo.Point, 0, cfg.Nodes)
	attempts := 0
	maxAttempts := 2000 * cfg.Nodes
	for len(pts) < cfg.Nodes {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("ocean mesh: rejection sampling stalled after %d attempts (region mostly land?)", attempts)
		}
		p := geo.Point{
			X: cfg.Region.MinX + rng.Float64()*cfg.Region.Width(),
			Y: cfg.Region.MinY + rng.Float64()*cfg.Region.Height(),
		}
		if lf.isLand(p) {
			continue
		}
		density := (1 + cfg.CoastalBoost*lf.coastCloseness(p)) / (1 + cfg.CoastalBoost)
		if rng.Float64() <= density {
			pts = append(pts, p)
		}
	}

	b := NewBuilder(cfg.Name, geo.Geodesic)
	for _, p := range pts {
		b.AddNode(p)
	}

	scaled := scaleForKNN(pts, geo.Geodesic)
	bk := newBuckets(scaled)
	k := cfg.MaxOutDegree + 3
	if k > cfg.Nodes-1 {
		k = cfg.Nodes - 1
	}
	// Every node's candidates are carved from one slab of k per node.
	neighbors := make([][]int32, cfg.Nodes)
	slab := make([]int32, 0, cfg.Nodes*k)
	for i := range neighbors {
		start := len(slab)
		slab = bk.knn(slab, i, k)
		neighbors[i] = slab[start:len(slab):len(slab)]
	}
	if err := connectAndFill(b, rng, neighbors, cfg.Edges, cfg.MaxOutDegree); err != nil {
		return nil, fmt.Errorf("ocean mesh %q: %w", cfg.Name, err)
	}
	// connectAndFill guarantees at least the target; trim any overshoot is
	// unnecessary because it never adds past the target.
	return b.Build()
}

// Preset regions for the paper's three datasets (Table 3). Boxes cover the
// named basins; exact geography is synthetic (see package comment).
var (
	caribbeanRegion     = geo.NewRect(geo.Point{X: -90, Y: 8}, geo.Point{X: -58, Y: 28})
	northAmericaRegion  = geo.NewRect(geo.Point{X: -100, Y: 5}, geo.Point{X: -50, Y: 50})
	atlanticOceanRegion = geo.NewRect(geo.Point{X: -80, Y: -35}, geo.Point{X: 10, Y: 60})
)

// CaribbeanGrid generates the Caribbean dataset: 710 nodes, 1684 edges.
func CaribbeanGrid(seed int64) (*Grid, error) {
	return GenerateOceanMesh(OceanMeshConfig{
		Name: "caribbean", Region: caribbeanRegion,
		Nodes: 710, Edges: 1684, MaxOutDegree: 6, Seed: seed,
	})
}

// NorthAmericaShoreGrid generates the North America Shore dataset:
// 3291 nodes, 7811 edges.
func NorthAmericaShoreGrid(seed int64) (*Grid, error) {
	return GenerateOceanMesh(OceanMeshConfig{
		Name: "north-america-shore", Region: northAmericaRegion,
		Nodes: 3291, Edges: 7811, MaxOutDegree: 6, Seed: seed,
	})
}

// AtlanticGrid generates the Atlantic dataset: 14655 nodes, 35061 edges.
func AtlanticGrid(seed int64) (*Grid, error) {
	return GenerateOceanMesh(OceanMeshConfig{
		Name: "atlantic", Region: atlanticOceanRegion,
		Nodes: 14655, Edges: 35061, MaxOutDegree: 6, Seed: seed,
	})
}
