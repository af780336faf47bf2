// Package geo provides the geometric primitives used throughout the MaMoRL
// framework: points identified by latitude/longitude (or planar x/y for
// synthetic grids), great-circle and planar distances, and rectangular
// regions used by the partial-knowledge planner.
//
// The paper (Section 2.1) describes asset and destination locations as
// (lat, long) pairs over a discrete grid. Synthetic grids (Section 4.1.1-II)
// live on an abstract plane; for those, Point carries planar coordinates and
// distances are Euclidean. Ocean meshes use geodesic (haversine) distances
// in nautical miles, matching maritime practice.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusNM is the mean Earth radius expressed in nautical miles.
// One nautical mile is one minute of latitude, so the value follows from
// the mean radius of 6371.0088 km and 1 NM = 1.852 km.
const EarthRadiusNM = 6371.0088 / 1.852

// Point is a location. For geodesic grids X is the longitude in degrees and
// Y is the latitude in degrees; for planar (synthetic) grids X and Y are
// abstract planar coordinates. The grid that owns the point records which
// interpretation applies (see Metric).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// String renders the point as "(x, y)" with compact precision.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// Metric selects how distances between Points are measured.
type Metric int

const (
	// Planar measures Euclidean distance on the XY plane.
	Planar Metric = iota
	// Geodesic measures great-circle distance treating X as longitude and
	// Y as latitude (degrees), returning nautical miles.
	Geodesic
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Planar:
		return "planar"
	case Geodesic:
		return "geodesic"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Distance returns the distance between a and b under the metric.
func (m Metric) Distance(a, b Point) float64 {
	switch m {
	case Geodesic:
		return Haversine(a, b)
	default:
		return Euclidean(a, b)
	}
}

// Euclidean returns the straight-line planar distance between a and b.
func Euclidean(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Haversine returns the great-circle distance between a and b in nautical
// miles, interpreting X as longitude and Y as latitude in degrees.
func Haversine(a, b Point) float64 {
	return HaversineCos(a, b, CosLat(a), CosLat(b))
}

// HaversineCos is Haversine given cosA = CosLat(a) and cosB = CosLat(b),
// bit for bit, for callers that cache the cosines (geodesic grids do).
func HaversineCos(a, b Point, cosA, cosB float64) float64 {
	dLat := b.Y*math.Pi/180 - a.Y*math.Pi/180
	dLon := (b.X - a.X) * math.Pi / 180
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cosA*cosB*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusNM * math.Asin(math.Sqrt(h))
}

// CosLat returns the cosine of p's latitude, the per-point factor of
// HaversineCos.
func CosLat(p Point) float64 { return math.Cos(p.Y * math.Pi / 180) }

// Rect is an axis-aligned rectangle, used to describe the bounding box of a
// grid and the "specified region" of the partial-knowledge setting
// (Section 4.1.2-1): the destination is known to lie inside the box but its
// exact location is unknown.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// NewRect returns the rectangle spanning the two corner points in either
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Width returns the X extent of the rectangle.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the Y extent of the rectangle.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Bound returns the smallest rectangle containing all the points.
// It panics if pts is empty: a bounding box of nothing is a programming
// error, not a recoverable condition.
func Bound(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: Bound of empty point set")
	}
	r := Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
func Lerp(a, b Point, t float64) Point {
	return Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}
