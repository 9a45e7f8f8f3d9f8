package alias

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// starNet builds a hub router with several spoke routers; each spoke
// gets extra loopback-style interfaces so it has multiple aliases.
type star struct {
	net    *netsim.Network
	vp     *netsim.Host
	spokes []*netsim.Router
	// ifaces[i] lists the addresses of spoke i.
	ifaces [][]netip.Addr
}

func buildStar(t *testing.T, nSpokes, extraIfaces int) *star {
	t.Helper()
	net := netsim.New(77)
	hub := net.AddRouter(&netsim.Router{Name: "hub", ISP: "t"})
	st := &star{net: net}
	for i := 0; i < nSpokes; i++ {
		r := net.AddRouter(&netsim.Router{Name: fmt.Sprintf("spoke%d", i), ISP: "t", IPID: netsim.IPIDShared})
		r.IPIDVelocity = 50 + float64(i*40)
		linkA := addr(fmt.Sprintf("10.0.%d.1", i))
		linkB := addr(fmt.Sprintf("10.0.%d.2", i))
		if _, err := net.ConnectRouters(hub, r, linkA, linkB, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		addrs := []netip.Addr{linkB}
		for k := 0; k < extraIfaces; k++ {
			a := addr(fmt.Sprintf("10.1.%d.%d", i, k+1))
			if _, err := net.AddIface(r, a); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		st.spokes = append(st.spokes, r)
		st.ifaces = append(st.ifaces, addrs)
	}
	st.vp = &netsim.Host{Addr: addr("192.168.0.1"), Router: hub, ISP: "t", RespondsToPing: true}
	if err := net.AddHost(st.vp); err != nil {
		t.Fatal(err)
	}
	return st
}

func newResolver(n *netsim.Network, vp netip.Addr) *Resolver {
	return &Resolver{
		Net:   n,
		Clock: vclock.New(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)),
		VP:    vp,
	}
}

func allTargets(st *star) []netip.Addr {
	var out []netip.Addr
	for _, g := range st.ifaces {
		out = append(out, g...)
	}
	return out
}

func TestMIDARGroupsSharedCounterRouter(t *testing.T) {
	st := buildStar(t, 4, 2)
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	for i, group := range st.ifaces {
		for _, a := range group[1:] {
			if !res.SameRouter(group[0], a) {
				t.Errorf("spoke %d: %v and %v not grouped", i, group[0], a)
			}
		}
	}
	if res.MIDARPairs == 0 {
		t.Error("MIDAR produced no evidence")
	}
}

func TestNoFalseAliasesAcrossRouters(t *testing.T) {
	st := buildStar(t, 5, 2)
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	for i := range st.ifaces {
		for j := i + 1; j < len(st.ifaces); j++ {
			for _, a := range st.ifaces[i] {
				for _, b := range st.ifaces[j] {
					if res.SameRouter(a, b) {
						t.Errorf("false alias across spokes %d/%d: %v %v", i, j, a, b)
					}
				}
			}
		}
	}
}

func TestRandomIPIDNotGrouped(t *testing.T) {
	st := buildStar(t, 3, 2)
	st.spokes[0].IPID = netsim.IPIDRandom
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	g := st.ifaces[0]
	for _, a := range g[1:] {
		if res.SameRouter(g[0], a) {
			t.Errorf("random-IPID interfaces grouped: %v %v", g[0], a)
		}
	}
	// The other spokes must still resolve.
	if !res.SameRouter(st.ifaces[1][0], st.ifaces[1][1]) {
		t.Error("shared-counter spoke no longer grouped")
	}
}

func TestPerInterfaceIPIDNotGrouped(t *testing.T) {
	st := buildStar(t, 3, 2)
	st.spokes[1].IPID = netsim.IPIDPerInterface
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	g := st.ifaces[1]
	for _, a := range g[1:] {
		if res.SameRouter(g[0], a) {
			t.Errorf("per-interface-IPID interfaces grouped: %v %v", g[0], a)
		}
	}
}

func TestMercatorGroupsCanonicalRouter(t *testing.T) {
	st := buildStar(t, 3, 2)
	// Spoke 0: random IPID (MIDAR-proof) but canonical replies.
	st.spokes[0].IPID = netsim.IPIDRandom
	st.spokes[0].ReplyAddr = netsim.ReplyCanonical
	st.spokes[0].Canonical = st.ifaces[0][1]
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	if !res.SameRouter(st.ifaces[0][0], st.ifaces[0][1]) {
		t.Error("Mercator did not group canonical-reply router")
	}
	if res.MercatorPairs == 0 {
		t.Error("no Mercator evidence recorded")
	}
}

func TestGroupsOutputDeterministicAndComplete(t *testing.T) {
	st := buildStar(t, 4, 2)
	r1 := newResolver(st.net, st.vp.Addr)
	res1 := r1.Resolve(allTargets(st))
	g1 := res1.Groups()
	if len(g1) != 4 {
		t.Fatalf("groups = %d, want 4", len(g1))
	}
	for _, g := range g1 {
		if len(g) != 3 {
			t.Errorf("group size = %d, want 3", len(g))
		}
		for i := 1; i < len(g); i++ {
			if !g[i-1].Less(g[i]) {
				t.Error("group members not sorted")
			}
		}
	}
	// Groups is consistent with SameRouter.
	for _, g := range g1 {
		for _, a := range g {
			if !res1.SameRouter(a, g[0]) {
				t.Errorf("Groups put non-aliases %v and %v together", a, g[0])
			}
		}
	}
}

func TestCompactPreservesAnswers(t *testing.T) {
	st := buildStar(t, 4, 2)
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))

	targets := allTargets(st)
	before := fmt.Sprint(res.Groups())
	sameBefore := make([]bool, 0, len(targets)*len(targets))
	for _, a := range targets {
		for _, b := range targets {
			sameBefore = append(sameBefore, res.SameRouter(a, b))
		}
	}
	res.Compact()
	if got := fmt.Sprint(res.Groups()); got != before {
		t.Errorf("Groups changed after Compact:\n got %s\nwant %s", got, before)
	}
	i := 0
	for _, a := range targets {
		for _, b := range targets {
			if res.SameRouter(a, b) != sameBefore[i] {
				t.Errorf("SameRouter(%v, %v) changed after Compact", a, b)
			}
			i++
		}
	}
	// Compacted state holds only grouped members; singleton probes must
	// still answer as singletons.
	if res.SameRouter(addr("203.0.113.9"), targets[0]) {
		t.Error("unseen address grouped after Compact")
	}
}

// TestLookupsAreReadOnly: looking up addresses the resolver never saw —
// through SameRouter and Groups, before and after Compact —
// must answer "singleton" without growing or reshaping the result.
func TestLookupsAreReadOnly(t *testing.T) {
	st := buildStar(t, 4, 2)
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	unseen := []netip.Addr{addr("203.0.113.9"), addr("198.51.100.7"), addr("2001:db8::5")}
	check := func(when string) {
		t.Helper()
		groups, size := fmt.Sprint(res.Groups()), len(res.addrs)
		for _, u := range unseen {
			if res.SameRouter(u, st.ifaces[0][0]) || res.SameRouter(st.ifaces[0][0], u) {
				t.Errorf("%s: unseen %v grouped with a target", when, u)
			}
			if !res.SameRouter(u, u) {
				t.Errorf("%s: SameRouter(%v, %v) = false", when, u, u)
			}
		}
		if got := fmt.Sprint(res.Groups()); got != groups {
			t.Errorf("%s: Groups changed by lookups:\n got %s\nwant %s", when, got, groups)
		}
		if len(res.addrs) != size || len(res.index) != size || len(res.parent) != size {
			t.Errorf("%s: result grew from %d to %d entries (index %d, parent %d)", when, size, len(res.addrs), len(res.index), len(res.parent))
		}
	}
	check("resolved")
	res.Compact()
	check("compacted")
}

// TestConcurrentLookupsOnCompacted runs SameRouter and Groups
// from several goroutines against one compacted result; under -race
// (make race-infer) any write on the lookup path fails the run.
func TestConcurrentLookupsOnCompacted(t *testing.T) {
	st := buildStar(t, 4, 2)
	r := newResolver(st.net, st.vp.Addr)
	targets := allTargets(st)
	res := r.Resolve(targets)
	res.Compact()
	want := make([]bool, 0, len(targets)*len(targets))
	for _, a := range targets {
		for _, b := range targets {
			want = append(want, res.SameRouter(a, b))
		}
	}
	groups := fmt.Sprint(res.Groups())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := 0
				for _, a := range targets {
					for _, b := range targets {
						if res.SameRouter(a, b) != want[i] {
							t.Errorf("SameRouter(%v, %v) changed under concurrency", a, b)
						}
						i++
					}
				}
				res.SameRouter(addr("203.0.113.9"), targets[0])
				if got := fmt.Sprint(res.Groups()); got != groups {
					t.Errorf("Groups changed under concurrency")
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnresponsiveTargetsSkipped(t *testing.T) {
	st := buildStar(t, 2, 1)
	st.spokes[0].ResponseProb = 0
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(allTargets(st))
	if res.SameRouter(st.ifaces[0][0], st.ifaces[0][1]) {
		t.Error("silent router got grouped")
	}
}

func TestHostsNeverGroupedWithRouters(t *testing.T) {
	st := buildStar(t, 2, 1)
	h := &netsim.Host{Addr: addr("192.168.5.5"), Router: st.spokes[0], ISP: "t", RespondsToPing: true}
	if err := st.net.AddHost(h); err != nil {
		t.Fatal(err)
	}
	targets := append(allTargets(st), h.Addr)
	r := newResolver(st.net, st.vp.Addr)
	res := r.Resolve(targets)
	for _, a := range allTargets(st) {
		if res.SameRouter(h.Addr, a) {
			t.Errorf("host grouped with router interface %v", a)
		}
	}
}

func TestVelocityCompatible(t *testing.T) {
	if !velocityCompatible(100, 110, 0.25) {
		t.Error("100 vs 110 should be compatible at 25%")
	}
	if velocityCompatible(100, 200, 0.25) {
		t.Error("100 vs 200 should be incompatible at 25%")
	}
	if !velocityCompatible(1, 5, 0.25) {
		t.Error("tiny velocities should pass via the absolute slack")
	}
}

func BenchmarkResolve(b *testing.B) {
	// 60 routers x 3 interfaces: a region-sized alias batch.
	st := buildStarB(b, 60, 2)
	targets := allTargets(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newResolver(st.net, st.vp.Addr)
		res := r.Resolve(targets)
		if len(res.Groups()) == 0 {
			b.Fatal("no groups")
		}
	}
}

// buildStarB mirrors buildStar for benchmarks.
func buildStarB(b *testing.B, nSpokes, extraIfaces int) *star {
	b.Helper()
	net := netsim.New(77)
	hub := net.AddRouter(&netsim.Router{Name: "hub", ISP: "t"})
	st := &star{net: net}
	for i := 0; i < nSpokes; i++ {
		r := net.AddRouter(&netsim.Router{Name: fmt.Sprintf("spoke%d", i), ISP: "t", IPID: netsim.IPIDShared})
		r.IPIDVelocity = 20 + float64(i*7%280)
		linkA := addr(fmt.Sprintf("10.%d.%d.1", i/200, i%200))
		linkB := addr(fmt.Sprintf("10.%d.%d.2", i/200, i%200))
		if _, err := net.ConnectRouters(hub, r, linkA, linkB, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		addrs := []netip.Addr{linkB}
		for k := 0; k < extraIfaces; k++ {
			a := addr(fmt.Sprintf("10.%d.%d.%d", 100+i/200, i%200, k+1))
			if _, err := net.AddIface(r, a); err != nil {
				b.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		st.spokes = append(st.spokes, r)
		st.ifaces = append(st.ifaces, addrs)
	}
	st.vp = &netsim.Host{Addr: addr("192.168.0.1"), Router: hub, ISP: "t", RespondsToPing: true}
	if err := net.AddHost(st.vp); err != nil {
		b.Fatal(err)
	}
	return st
}
