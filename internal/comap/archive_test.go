package comap

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/probesched"
)

// addrPath is a test fixture path in address form: newTestCollection
// interns it into a resident archive exactly as the collection fold
// files a kept trace.
type addrPath struct {
	Src, Dst netip.Addr
	Stage    string
	Hops     []netip.Addr
	Gaps     []bool
	Reached  bool
}

// newTestCollection builds a resident Collection from fixture paths:
// each path goes through Collection.keep (so AddrIDs, flags and
// windows are what a campaign would produce).
func newTestCollection(paths ...addrPath) *Collection {
	col := &Collection{}
	for _, p := range paths {
		gaps := p.Gaps
		if gaps == nil {
			gaps = make([]bool, len(p.Hops))
		}
		col.keep(p.Stage, p.Src, p.Dst, p.Reached, p.Hops, gaps, nil)
	}
	return col
}

// addrHops resolves a path's hop IDs back to addresses.
func addrHops(col *Collection, p Path) []netip.Addr {
	out := make([]netip.Addr, len(p.Hops))
	for i, h := range p.Hops {
		out[i] = col.Addr(h)
	}
	return out
}

// TestArchiveInternsFirstSeen pins the AddrID assignment (source,
// destination, then responsive hops, first-seen) and the per-ID flags,
// and that paths read back through EachPath and foldPaths — across
// resident window and stage boundaries — unchanged.
func TestArchiveInternsFirstSeen(t *testing.T) {
	vp, d1, d2 := a("192.0.2.1"), a("198.51.100.1"), a("198.51.100.2")
	h1, h2, h3 := a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")
	fixture := []addrPath{
		{Src: vp, Dst: d1, Stage: "sweep", Hops: []netip.Addr{h1, h2}, Gaps: []bool{false, true}},
		{Src: vp, Dst: h3, Stage: "direct", Hops: []netip.Addr{h2, h3}, Reached: true},
	}
	col := newTestCollection(fixture...)
	want := []netip.Addr{vp, d1, h1, h2, h3}
	if col.NumAddrs() != len(want) {
		t.Fatalf("NumAddrs = %d, want %d", col.NumAddrs(), len(want))
	}
	for id, w := range want {
		if got := col.Addr(AddrID(id)); got != w {
			t.Errorf("Addr(%d) = %s, want %s", id, got, w)
		}
	}
	// h3 ends a reached path: observed, but never interior.
	for _, tc := range []struct {
		addr  netip.Addr
		flags uint8
	}{{vp, 0}, {d1, 0}, {h1, flagObserved | flagInterior}, {h2, flagObserved | flagInterior}, {h3, flagObserved}} {
		id, _ := col.idOf(tc.addr)
		if col.flags[id] != tc.flags {
			t.Errorf("flags(%s) = %b, want %b", tc.addr, col.flags[id], tc.flags)
		}
	}
	if got := col.Observed(); col.NumObserved() != 3 || fmt.Sprint(got) != fmt.Sprint([]netip.Addr{h1, h2, h3}) {
		t.Errorf("Observed = %v (NumObserved %d), want [%s %s %s]", got, col.NumObserved(), h1, h2, h3)
	}

	// A stage run longer than one resident window.
	many := make([]addrPath, 0, residentWindow+3)
	for i := 0; i < residentWindow+3; i++ {
		many = append(many, addrPath{Src: vp, Dst: d2, Stage: "sweep", Hops: []netip.Addr{h1}})
	}
	many = append(many, fixture...)
	col = newTestCollection(many...)
	if len(col.windows) != 3 {
		t.Fatalf("windows = %d, want 3 (full sweep, sweep tail, direct)", len(col.windows))
	}
	n := 0
	col.EachPath(func(i int, p Path, stage string) {
		if i != n {
			t.Fatalf("EachPath index %d, want %d", i, n)
		}
		f := many[i]
		if stage != f.Stage || col.Addr(p.Dst) != f.Dst || p.Reached != f.Reached {
			t.Fatalf("path %d = %+v stage %s, want %+v", i, p, stage, f)
		}
		if got := addrHops(col, p); len(got) != len(f.Hops) || got[len(got)-1] != f.Hops[len(f.Hops)-1] {
			t.Fatalf("path %d hops = %v, want %v", i, got, f.Hops)
		}
		n++
	})
	if n != len(many) || col.NumPaths() != len(many) {
		t.Fatalf("visited %d of %d paths (NumPaths %d)", n, len(many), col.NumPaths())
	}
	for _, workers := range []int{1, 4} {
		sum := foldPaths(probesched.New(workers, nil), col,
			func() int { return 0 },
			func(acc, i int, p Path, stage string) int {
				if col.Addr(p.Dst) != many[i].Dst || stage != many[i].Stage {
					t.Errorf("workers=%d: foldPaths path %d mislocated", workers, i)
				}
				return acc + i
			},
			func(into, from int) int { return into + from })
		if want := len(many) * (len(many) - 1) / 2; sum != want {
			t.Errorf("workers=%d: index sum %d, want %d", workers, sum, want)
		}
	}
}

// pairSet indexes a FalsePairs/DirectPairs listing for membership tests.
func pairSet(pairs [][2]netip.Addr) map[[2]netip.Addr]bool {
	set := make(map[[2]netip.Addr]bool, len(pairs))
	for _, p := range pairs {
		set[p] = true
	}
	return set
}
