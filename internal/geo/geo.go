// Package geo provides geographic primitives for the regional access
// network simulator: a database of U.S. cities with coordinates, great
// circle distance, fiber-propagation latency estimates, and hexagonal
// binning used to render latency maps (paper Fig. 18).
package geo

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is a location on the Earth's surface in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between a and b using the
// haversine formula.
func DistanceKm(a, b Point) float64 {
	const deg = math.Pi / 180
	lat1, lon1 := a.Lat*deg, a.Lon*deg
	lat2, lon2 := b.Lat*deg, b.Lon*deg
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// FiberSpeedKmPerMs is the propagation speed of light in fiber,
// approximately 2/3 of c, expressed in km per millisecond.
const FiberSpeedKmPerMs = 200.0

// FiberPathInflation accounts for the fact that fiber conduits follow
// roads and rail rather than great circles. Durairajan et al. report
// typical inflation factors between 1.2 and 2; we use a middle value.
const FiberPathInflation = 1.4

// PropagationDelay returns the one-way fiber propagation delay between two
// points, including conduit path inflation.
func PropagationDelay(a, b Point) time.Duration {
	km := DistanceKm(a, b) * FiberPathInflation
	ms := km / FiberSpeedKmPerMs
	return time.Duration(ms * float64(time.Millisecond))
}

// City is one entry in the embedded U.S. city database.
type City struct {
	Name  string
	State string // two-letter postal code
	Point Point
	// Metro marks cities that anchor a metropolitan area; topology
	// generators place AggCOs and BackboneCOs in metro cities.
	Metro bool
}

// ByName returns the city with the given name, or false when the database
// has no such city. Lookup is case-sensitive and names are unique.
func ByName(name string) (City, bool) {
	i, ok := cityIndex[name]
	if !ok {
		return City{}, false
	}
	return usCities[i], true
}

// MustByName is ByName for compile-time-known city names; it panics when
// the city is missing, which indicates a programming error in a generator
// table rather than a runtime condition.
func MustByName(name string) City {
	c, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("geo: unknown city %q", name))
	}
	return c
}

// InState returns all database cities in the given state, sorted by name.
func InState(state string) []City {
	var out []City
	for _, c := range usCities {
		if c.State == state {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns a copy of the full city database.
func All() []City {
	out := make([]City, len(usCities))
	copy(out, usCities)
	return out
}

// States returns the sorted set of states present in the database.
func States() []string {
	seen := map[string]bool{}
	for _, c := range usCities {
		seen[c.State] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Nearest returns the database city closest to p.
func Nearest(p Point) City {
	c, _ := NearestKm(p)
	return c
}

// NearestKm returns the database city closest to p and its distance
// DistanceKm(p, city.Point). Of cities at equal distance, the one
// listed first in the database wins.
func NearestKm(p Point) (City, float64) {
	i, d := usNear.nearest(p)
	return usCities[i], d
}

// nearIndex answers nearest-city queries over a city table without
// computing a distance to every city. The great-circle distance between
// two points is at least EarthRadiusKm times their latitude difference
// in radians, so a query walks the cities outward from its own latitude,
// closest latitude first, and stops once that bound alone exceeds the
// best distance found.
type nearIndex struct {
	cities []City
	order  []int     // indices into cities, by latitude, then table order
	lat    []float64 // lat[i] is cities[order[i]]'s latitude in radians
}

// nearSlackKm absorbs the rounding of DistanceKm, whose result can fall
// a few ulps below the exact latitude bound: without it a city at
// exactly the best distance could be pruned and lose its tie-break.
const nearSlackKm = 1e-6

func newNearIndex(cities []City) *nearIndex {
	const deg = math.Pi / 180
	x := &nearIndex{cities: cities, order: make([]int, len(cities)), lat: make([]float64, len(cities))}
	for i := range x.order {
		x.order[i] = i
	}
	sort.SliceStable(x.order, func(a, b int) bool {
		return cities[x.order[a]].Point.Lat < cities[x.order[b]].Point.Lat
	})
	for i, c := range x.order {
		x.lat[i] = cities[c].Point.Lat * deg
	}
	return x
}

// nearest returns the index of the city closest to p and its distance:
// the city a scan of the table in order keeps, the first one at the
// least distance.
func (x *nearIndex) nearest(p Point) (int, float64) {
	const deg = math.Pi / 180
	q := p.Lat * deg
	// The latitude bound holds for latitudes on the globe; anything else
	// walks every city.
	prune := p.Lat >= -90 && p.Lat <= 90
	best, bestD := 0, math.Inf(1)
	hi := sort.SearchFloat64s(x.lat, q)
	lo := hi - 1
	for lo >= 0 || hi < len(x.lat) {
		var k int
		var dLat float64
		if hi < len(x.lat) && (lo < 0 || x.lat[hi]-q <= q-x.lat[lo]) {
			k, dLat = hi, x.lat[hi]-q
			hi++
		} else {
			k, dLat = lo, q-x.lat[lo]
			lo--
		}
		// Every city not yet visited lies at least dLat away in latitude.
		if prune && EarthRadiusKm*dLat-nearSlackKm > bestD {
			break
		}
		i := x.order[k]
		if d := DistanceKm(p, x.cities[i].Point); d < bestD || (d == bestD && i < best) {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// usNear indexes the embedded database.
var usNear = newNearIndex(usCities)

// NearestState approximates the U.S. state containing p as the state of
// the nearest database city. This is the same fidelity the paper gets
// from cell-tower geolocation of a phone in a truck.
func NearestState(p Point) string {
	return Nearest(p).State
}

// Interpolate returns the point a fraction f of the way from a to b along
// the great-circle path, using simple spherical linear interpolation.
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	// For the continental-US distances we deal with, linear interpolation
	// of lat/lon is within a few km of the true great-circle point, which
	// is far below the resolution of our latency model.
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}
