package mobilemap

// Unit tests for the analysis helpers over synthetic rounds.

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ipalloc"
	"repro/internal/ship"
)

func mkRound(at int, loc geo.Point, user string, hops ...string) ship.Round {
	r := ship.Round{
		At:       time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(at) * time.Hour),
		TowerLoc: loc,
		TrueLoc:  loc,
		OK:       true,
		UserAddr: netip.MustParseAddr(user),
	}
	for _, h := range hops {
		r.Hops = append(r.Hops, netip.MustParseAddr(h))
	}
	return r
}

func TestProviderOf(t *testing.T) {
	tests := map[string]string{
		"ae1.cr1.chcgil.zayo.example.net":    "zayo",
		"0.ge-1-0-0.nycmny.alter.net":        "alter",
		"xe-6.cr.dnvrco.transit.example.net": "", // shared long-haul: skipped
		"short":                              "",
		"":                                   "",
	}
	for name, want := range tests {
		if got := providerOf(name); got != want {
			t.Errorf("providerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	rounds := []ship.Round{
		mkRound(0, geo.Point{}, "2600:380:6c00::1"),
		mkRound(1, geo.Point{}, "2600:380:1000::2"),
		mkRound(2, geo.Point{}, "2600:380:ff00::3"),
	}
	if got := commonPrefixLen(rounds); got != 32 {
		t.Errorf("commonPrefixLen = %d, want 32", got)
	}
	same := []ship.Round{
		mkRound(0, geo.Point{}, "2600:380::1"),
		mkRound(1, geo.Point{}, "2600:380::1"),
	}
	if got := commonPrefixLen(same); got != 64 {
		t.Errorf("identical addresses prefix = %d, want the 64-bit cap", got)
	}
}

func TestDominantInfraBaseFilters(t *testing.T) {
	// Hops: user-space (skipped), IPv4 transit (skipped), named v6
	// (skipped), and the unnamed infra base (counted).
	rounds := []ship.Round{
		mkRound(0, geo.Point{}, "2600:380::1",
			"2600:380::ffff", // user space
			"2600:300:20::1", // infra
			"144.232.0.1",    // IPv4 transit
		),
		mkRound(1, geo.Point{}, "2600:380::2",
			"2600:300:20::9",
			"2600:300:20::a",
		),
	}
	base := dominantInfraBase(rounds, rounds[0].UserAddr, nil)
	if base.String() != "2600:300::" {
		t.Errorf("base = %v, want 2600:300::", base)
	}
	// No infra hops at all: invalid base, no panic.
	none := []ship.Round{mkRound(0, geo.Point{}, "2600:380::1", "2600:380::ffff")}
	if b := dominantInfraBase(none, none[0].UserAddr, nil); b.IsValid() {
		t.Errorf("base from user-only hops = %v", b)
	}
}

// TestSyntheticPlanRecovery drives AnalyzeParallel over a hand-built journey
// with a known plan: region byte at 32-39 (two cities), pgw nibble at
// 40-43 (cycling during a dwell).
func TestSyntheticPlanRecovery(t *testing.T) {
	west := geo.MustByName("Los Angeles").Point
	east := geo.MustByName("New York").Point
	user := func(region, pgw, host uint64) string {
		a := ipalloc.V6WithFields(netip.MustParseAddr("2600:380::"),
			ipalloc.Field{Start: 32, Len: 8, Value: region},
			ipalloc.Field{Start: 40, Len: 4, Value: pgw},
			ipalloc.Field{Start: 96, Len: 32, Value: host})
		return a.String()
	}
	var rounds []ship.Round
	at := 0
	// Dwell in LA: region 0x10, pgws cycling 0..2.
	for i := 0; i < 12; i++ {
		rounds = append(rounds, mkRound(at, west, user(0x13, uint64(i%3), uint64(at))))
		at++
	}
	// Drive east: region flips to 0x20 halfway.
	for i := 0; i < 10; i++ {
		f := float64(i) / 9
		loc := geo.Interpolate(west, east, f)
		region := uint64(0x13)
		if f > 0.5 {
			region = 0x25
		}
		rounds = append(rounds, mkRound(at, loc, user(region, uint64(i%3), uint64(at))))
		at++
	}
	// Dwell in NY.
	for i := 0; i < 12; i++ {
		rounds = append(rounds, mkRound(at, east, user(0x25, uint64(i%3), uint64(at))))
		at++
	}
	a := AnalyzeParallel(rounds, nil, 1)
	if a.UserPrefixLen != 32 {
		t.Errorf("prefix = /%d", a.UserPrefixLen)
	}
	if a.RegionField != (Field{Start: 32, Len: 8}) {
		t.Errorf("region field = %v", a.RegionField)
	}
	if a.PGWField != (Field{Start: 40, Len: 4}) {
		t.Errorf("pgw field = %v", a.PGWField)
	}
	if got := a.PGWCounts[0x13]; got != 3 {
		t.Errorf("LA pgw count = %d, want 3", got)
	}
	if got := a.PGWCounts[0x25]; got != 3 {
		t.Errorf("NY pgw count = %d, want 3", got)
	}
	if a.Arch != ArchSingleEdge {
		t.Errorf("arch = %v", a.Arch)
	}
}

func TestFieldString(t *testing.T) {
	if got := (Field{}).String(); got != "none" {
		t.Errorf("empty field = %q", got)
	}
	if got := (Field{Start: 32, Len: 8}).String(); got != "bits 32-39" {
		t.Errorf("field = %q", got)
	}
}

func TestArchString(t *testing.T) {
	for arch, want := range map[Arch]string{
		ArchUnknown: "unknown", ArchSingleEdge: "single-edge",
		ArchMultiEdge: "multi-edge", ArchMultiBackbone: "multi-backbone",
	} {
		if arch.String() != want {
			t.Errorf("Arch %d = %q", arch, arch.String())
		}
	}
}
