package geo

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// nearestScan is the retired Nearest: a haversine to every city of the
// table, keeping the first city at the least distance. The index must
// answer exactly as it does.
func nearestScan(cities []City, p Point) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, c := range cities {
		if d := DistanceKm(p, c.Point); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// sameNearest reports whether the index and the scan agree on p, to
// the bit for the distance.
func sameNearest(t *testing.T, x *nearIndex, p Point) bool {
	t.Helper()
	gi, gd := x.nearest(p)
	wi, wd := nearestScan(x.cities, p)
	if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
		t.Errorf("nearest(%v) = city %d at %v km, scan city %d at %v km", p, gi, gd, wi, wd)
		return false
	}
	return true
}

// TestNearestIndexMatchesScan holds the banded index to the scan on the
// database: a million seeded points (a tenth of that under -short), half
// inside the database's bounding box and half anywhere on the globe
// (plus latitudes off it), every city, and every city-pair midpoint,
// where two cities tie or nearly tie.
func TestNearestIndexMatchesScan(t *testing.T) {
	x := usNear
	minLat, maxLat, minLon, maxLon := 90.0, -90.0, 180.0, -180.0
	for _, c := range usCities {
		minLat, maxLat = math.Min(minLat, c.Point.Lat), math.Max(maxLat, c.Point.Lat)
		minLon, maxLon = math.Min(minLon, c.Point.Lon), math.Max(maxLon, c.Point.Lon)
	}
	n := 1_000_000
	if testing.Short() {
		n /= 10
	}
	// Each worker checks its own seeded share of the points.
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := w; i < n; i += workers {
				var p Point
				switch {
				case i%2 == 0:
					p = Point{minLat + rng.Float64()*(maxLat-minLat), minLon + rng.Float64()*(maxLon-minLon)}
				case i%1000 == 1:
					p = Point{rng.Float64()*720 - 360, rng.Float64()*720 - 360}
				default:
					p = Point{rng.Float64()*180 - 90, rng.Float64()*360 - 180}
				}
				if !sameNearest(t, x, p) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, c := range usCities {
		if !sameNearest(t, x, c.Point) {
			return
		}
	}
	for i, a := range usCities {
		for _, b := range usCities[i+1:] {
			mid := Point{(a.Point.Lat + b.Point.Lat) / 2, (a.Point.Lon + b.Point.Lon) / 2}
			if !sameNearest(t, x, mid) || !sameNearest(t, x, Interpolate(a.Point, b.Point, 0.5)) {
				return
			}
		}
	}
	for _, p := range []Point{{math.NaN(), -100}, {40, math.NaN()}, {math.Inf(1), 0}, {90, 0}, {-90, 0}} {
		sameNearest(t, x, p)
	}
}

// TestNearestIndexTieBreak holds the index to the scan's tie-break, the
// first city in table order, on a table of exact ties: duplicated
// coordinates, and cities mirrored about the equator and the prime
// meridian, which lie at bit-identical distances from the origin and
// its neighbours.
func TestNearestIndexTieBreak(t *testing.T) {
	pts := []Point{
		{0, 1}, {1, 0}, {0, -1}, {-1, 0}, // one degree from the origin, all four ways
		{1, 0}, {0, 1}, // duplicates after their first entries
		{2, 2}, {-2, 2}, {2, -2}, {-2, -2},
		{-2, -2}, {2, 2},
		{0, 3}, {0, -3}, {3, 0}, {-3, 0},
	}
	var tbl []City
	for _, p := range pts {
		tbl = append(tbl, City{Point: p})
	}
	// The same table reversed puts the other member of every tie first.
	rev := make([]City, len(tbl))
	for i, c := range tbl {
		rev[len(tbl)-1-i] = c
	}
	for _, cities := range [][]City{tbl, rev} {
		x := newNearIndex(cities)
		for lat := -4.0; lat <= 4; lat += 0.5 {
			for lon := -4.0; lon <= 4; lon += 0.5 {
				sameNearest(t, x, Point{lat, lon})
			}
		}
		for _, c := range cities {
			sameNearest(t, x, c.Point)
		}
	}
	// The origin's four one-degree neighbours tie exactly; the table's
	// first wins, as in the scan.
	if i, _ := newNearIndex(tbl).nearest(Point{}); i != 0 {
		t.Errorf("tie at the origin went to city %d, want 0", i)
	}
}

var nearestSink int

// BenchmarkNearest compares the retired scan with the banded index on
// points along the continental U.S.
func BenchmarkNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Point{25 + rng.Float64()*24, -124 + rng.Float64()*57}
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nearestSink, _ = nearestScan(usCities, pts[i%len(pts)])
		}
	})
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nearestSink, _ = usNear.nearest(pts[i%len(pts)])
		}
	})
}
