package comap

import (
	"net/netip"
	"testing"

	"repro/internal/probesched"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// refFindFalsePairs is the retired address-keyed findFalsePairs, kept
// as the reference for the packed-ID implementation: the same two folds
// with every path resolved back to addresses through Collection.Addr
// and every set keyed by [2]netip.Addr.
func refFindFalsePairs(col *Collection, pool *probesched.Pool) (falsePairs, directPairs map[[2]netip.Addr]bool) {
	adj := foldPaths(pool, col,
		func() map[[2]netip.Addr]bool { return map[[2]netip.Addr]bool{} },
		func(set map[[2]netip.Addr]bool, _ int, p Path, _ string) map[[2]netip.Addr]bool {
			hops := addrHops(col, p)
			for i := 1; i < len(hops); i++ {
				if p.Gaps[i] {
					continue
				}
				set[[2]netip.Addr{hops[i-1], hops[i]}] = true
			}
			return set
		},
		func(into, from map[[2]netip.Addr]bool) map[[2]netip.Addr]bool {
			if len(from) > len(into) {
				into, from = from, into
			}
			for k := range from {
				into[k] = true
			}
			return into
		})
	pairsBySecond := make(map[netip.Addr][]netip.Addr, len(adj))
	for pair := range adj {
		pairsBySecond[pair[1]] = append(pairsBySecond[pair[1]], pair[0])
	}
	type verdicts struct {
		falsePairs  map[[2]netip.Addr]bool
		directPairs map[[2]netip.Addr]bool
	}
	v := foldPaths(pool, col,
		func() verdicts {
			return verdicts{map[[2]netip.Addr]bool{}, map[[2]netip.Addr]bool{}}
		},
		func(acc verdicts, _ int, p Path, _ string) verdicts {
			if !p.Reached {
				return acc
			}
			b := col.Addr(p.Dst)
			hops := addrHops(col, p)
			cands := pairsBySecond[b]
			if len(cands) == 0 {
				return acc
			}
			bPos := -1
			for i, h := range hops {
				if h == b {
					bPos = i
				}
			}
			for _, a := range cands {
				aPos := -1
				for i, h := range hops {
					if h == a {
						aPos = i
					}
				}
				switch {
				case aPos >= 0 && bPos > aPos+1:
					acc.falsePairs[[2]netip.Addr{a, b}] = true
				case aPos >= 0 && bPos == aPos+1 && !p.Gaps[bPos]:
					acc.directPairs[[2]netip.Addr{a, b}] = true
				}
			}
			return acc
		},
		func(into, from verdicts) verdicts {
			for k := range from.falsePairs {
				into.falsePairs[k] = true
			}
			for k := range from.directPairs {
				into.directPairs[k] = true
			}
			return into
		})
	return v.falsePairs, v.directPairs
}

// checkFalsePairsMatchReference runs the reference over col (whose
// FalsePairs/DirectPairs findFalsePairs already filled) and requires
// identical verdict sets. (The seed-7 Comcast network runs no tunnels,
// so only its direct set is nonempty; Charter has both.)
func checkFalsePairsMatchReference(t *testing.T, col *Collection) {
	t.Helper()
	wantFalse, wantDirect := refFindFalsePairs(col, probesched.New(4, nil))
	if len(wantFalse)+len(wantDirect) == 0 {
		t.Fatalf("vacuous comparison: reference found %d false and %d direct pairs",
			len(wantFalse), len(wantDirect))
	}
	samePairSet(t, "FalsePairs", col.FalsePairs(), wantFalse)
	samePairSet(t, "DirectPairs", col.DirectPairs(), wantDirect)
}

func samePairSet(t *testing.T, name string, list [][2]netip.Addr, want map[[2]netip.Addr]bool) {
	t.Helper()
	got := pairSet(list)
	if len(list) != len(got) {
		t.Errorf("%s: %d pairs listed, %d distinct", name, len(list), len(got))
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d pairs, reference %d", name, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing reference pair %v", name, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: extra pair %v", name, k)
		}
	}
}

// TestFindFalsePairsMatchesReference holds the packed-key adjacency
// pass to the [2]netip.Addr reference on a hand-built collection that
// mixes address families and on the seed-7 cable campaigns, resident
// and streamed through 16-trace windows.
func TestFindFalsePairsMatchesReference(t *testing.T) {
	t.Run("mixed-families", func(t *testing.T) {
		// Each family gets one tunnel artifact (adjacent in a trace
		// toward a host, separated in the DPR trace to the egress) and
		// one confirmed direct link. The mixed v4/4-in-6 and v4/v6
		// pairs are ones PairKey4 rejects.
		v4a, v4b, v4i, v4c, v4d := a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.9"), a("10.0.1.1"), a("10.0.1.2")
		v6a, v6b, v6i, v6c, v6d := a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::9"), a("2001:db8:1::1"), a("2001:db8:1::2")
		m4a, m4b, m4i := a("::ffff:10.9.0.1"), a("::ffff:10.9.0.2"), a("::ffff:10.9.0.9")
		paths := []addrPath{
			{Dst: a("203.0.113.1"), Reached: true, Hops: []netip.Addr{v4a, v4b, v4c, v4d}, Gaps: []bool{false, false, false, false}},
			{Dst: v4b, Reached: true, Hops: []netip.Addr{v4a, v4i, v4b}, Gaps: []bool{false, false, false}},
			{Dst: v4d, Reached: true, Hops: []netip.Addr{v4c, v4d}, Gaps: []bool{false, false}},
			{Dst: a("2001:db8:ff::1"), Reached: true, Hops: []netip.Addr{v6a, v6b, v6c, v6d}, Gaps: []bool{false, false, false, false}},
			{Dst: v6b, Reached: true, Hops: []netip.Addr{v6a, v6i, v6b}, Gaps: []bool{false, false, false}},
			{Dst: v6d, Reached: true, Hops: []netip.Addr{v6c, v6d}, Gaps: []bool{false, false}},
			// 4-in-6 mapped tunnel, and a v4 hop adjacent to a mapped
			// one and to a v6 one.
			{Dst: a("203.0.113.9"), Reached: true, Hops: []netip.Addr{v4c, m4a, m4b, v6c}, Gaps: []bool{false, false, false, false}},
			{Dst: m4b, Reached: true, Hops: []netip.Addr{m4a, m4i, m4b}, Gaps: []bool{false, false, false}},
			{Dst: m4a, Reached: true, Hops: []netip.Addr{v4c, m4a}, Gaps: []bool{false, false}},
			{Dst: v6c, Reached: true, Hops: []netip.Addr{m4b, v6c}, Gaps: []bool{false, false}},
			// A gap hides the adjacency both as a candidate and as a
			// confirmation: (v4d, v6a) never becomes a pair, and the
			// DPR trace to v4b through a gap confirms nothing.
			{Dst: v6a, Reached: true, Hops: []netip.Addr{v4d, v6a}, Gaps: []bool{false, true}},
			{Dst: v4b, Reached: true, Hops: []netip.Addr{v4a, v4b}, Gaps: []bool{false, true}},
			// Unreached paths contribute adjacencies but no verdicts.
			{Dst: v6d, Reached: false, Hops: []netip.Addr{v6a, v6c}, Gaps: []bool{false, false}},
			{Dst: v4i, Reached: false, Hops: []netip.Addr{v4a, v6a, v4i}, Gaps: []bool{false, false, false}},
			{Dst: v4i, Reached: false},
		}
		for _, workers := range []int{1, 4} {
			col := newTestCollection(paths...)
			findFalsePairs(col, probesched.New(workers, nil))
			checkFalsePairsMatchReference(t, col)
			falsePairs, directPairs := pairSet(col.FalsePairs()), pairSet(col.DirectPairs())
			for _, p := range [][2]netip.Addr{{v4a, v4b}, {v6a, v6b}, {m4a, m4b}} {
				if !falsePairs[p] {
					t.Errorf("workers=%d: tunnel pair %v not flagged false", workers, p)
				}
			}
			for _, p := range [][2]netip.Addr{{v4c, v4d}, {v6c, v6d}, {v4c, m4a}, {m4b, v6c}} {
				if !directPairs[p] {
					t.Errorf("workers=%d: direct pair %v not confirmed", workers, p)
				}
			}
		}
	})

	if testing.Short() {
		t.Skip("seed-7 campaigns; skipped with -short")
	}
	f := getFixture(t)
	// The windowed campaigns probe their own seed-7 scenario, so the
	// shared fixture's network state stays untouched.
	s := topogen.NewScenario(7)
	windowed := map[string]*topogen.ISP{
		"comcast": s.BuildCable(topogen.ComcastProfile()),
		"charter": s.BuildCable(topogen.CharterProfile()),
	}
	vps := s.StandardVPs(windowed["comcast"], windowed["charter"])
	for _, tc := range []struct {
		name string
		res  *Result
	}{{"comcast", f.resC}, {"charter", f.resH}} {
		t.Run(tc.name+"/resident", func(t *testing.T) {
			checkFalsePairsMatchReference(t, tc.res.Collection)
		})
		t.Run(tc.name+"/window16", func(t *testing.T) {
			isp := windowed[tc.name]
			c := &Campaign{
				Net:         s.Net,
				DNS:         s.DNS,
				Clock:       vclock.New(s.Epoch()),
				ISP:         isp.Name,
				VPs:         vps,
				Announced:   isp.Announced,
				SkipAlias:   true,
				TraceWindow: 16,
				SpillDir:    t.TempDir(),
			}
			col := c.Run()
			defer col.Close()
			checkFalsePairsMatchReference(t, col)
		})
	}
}
