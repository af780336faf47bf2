package grid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// TestKNNMatchesSort checks knn's bounded selection against the full sort
// of the same candidates it replaced, on every query point of seeded random
// point sets and of point sets built to tie: duplicate points, an integer
// lattice, and pairs mirrored about a query point. The random sets exercise
// the insertion buffer, the tied ones its fallback to the sort; the test
// fails unless both paths were taken.
func TestKNNMatchesSort(t *testing.T) {
	type pointSet struct {
		name string
		pts  []geo.Point
	}
	var sets []pointSet
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 4; s++ {
		pts := make([]geo.Point, 50+rng.Intn(300))
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		sets = append(sets, pointSet{fmt.Sprintf("random-%d", s), pts})
	}
	var dup []geo.Point
	for i := 0; i < 40; i++ {
		p := geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}
		for c := 0; c <= i%3; c++ {
			dup = append(dup, p)
		}
	}
	sets = append(sets, pointSet{"duplicates", dup})
	var lattice []geo.Point
	for y := 0; y < 12; y++ {
		for x := 0; x < 15; x++ {
			lattice = append(lattice, geo.Point{X: float64(x), Y: float64(y)})
		}
	}
	sets = append(sets, pointSet{"lattice", lattice})
	// Offsets of 1/8 steps are exact in binary, so each pair's two
	// distances to the centre are bit-equal.
	mirrored := []geo.Point{{X: 16, Y: 16}}
	for i := 0; i < 60; i++ {
		dx, dy := float64(rng.Intn(96)-48)/8, float64(rng.Intn(96)-48)/8
		mirrored = append(mirrored, geo.Point{X: 16 + dx, Y: 16 + dy}, geo.Point{X: 16 - dx, Y: 16 - dy})
	}
	sets = append(sets, pointSet{"mirrored", mirrored})

	fast, fallback := 0, 0
	for _, set := range sets {
		name, pts := set.name, set.pts
		bk := newBuckets(pts)
		for _, k := range []int{1, 6, 13, len(pts) - 1, len(pts) + 5} {
			for i := range pts {
				cands := slices.Clone(bk.candidates(i, k))
				if _, unique := selectNearest(nil, cands, k); unique {
					fast++
				} else {
					fallback++
				}
				slices.SortFunc(cands, func(a, b knnCand) int { return cmpDist(a.d, b.d) })
				want := make([]int32, 0, k)
				for _, c := range cands[:min(k, len(cands))] {
					want = append(want, c.idx)
				}
				if got := bk.knn(nil, i, k); !slices.Equal(got, want) {
					t.Fatalf("%s: knn(%d, k=%d) = %v, full sort gives %v", name, i, k, got, want)
				}
			}
		}
	}
	if fast == 0 || fallback == 0 {
		t.Fatalf("selection took the insertion buffer %d times and the sort %d times; both must be reached", fast, fallback)
	}
	t.Logf("insertion buffer %d queries, sort fallback %d", fast, fallback)
}
