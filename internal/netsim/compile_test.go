package netsim

import (
	"net/netip"
	"testing"
	"time"
)

// TestFlowProbeAllocatesNothing pins the replay fast path: once a flow
// is compiled, answering a probe for any TTL only indexes into its hop
// sequence.
func TestFlowProbeAllocatesNothing(t *testing.T) {
	net, src, dst := randomNet(1234, 200)
	flow := net.CompileFlow(src.Addr, dst.Addr, 7)
	if flow.HopsToDst() == 0 {
		t.Fatal("test flow is unreachable")
	}
	ttl := uint8(0)
	allocs := testing.AllocsPerRun(200, func() {
		ttl = ttl%12 + 1
		flow.Probe(pt0, ttl, ICMPEcho, uint32(ttl))
	})
	if allocs != 0 {
		t.Errorf("Flow.Probe allocates %v times per probe, want 0", allocs)
	}
}

// TestCompileFlowAllocs pins the cost of compiling a reachable flow once
// its source's shortest-path tree is cached: its visible-hop slice. The
// router walk lives in a stack buffer, and the Flow holds the hops
// rather than a heap PathBuf.
func TestCompileFlowAllocs(t *testing.T) {
	net, src, dst := randomNet(1234, 200)
	if f := net.CompileFlow(src.Addr, dst.Addr, 7); f.HopsToDst() == 0 {
		t.Fatal("test flow is unreachable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		net.CompileFlow(src.Addr, dst.Addr, 7)
	})
	if allocs > 1 {
		t.Errorf("CompileFlow allocates %v times per flow, want at most 1", allocs)
	}
}

// TestCompileFlowIntoAllocatesNothing pins the traceroute worker's
// compile: once a PathBuf has grown to the flow's path, compiling into
// it again allocates nothing, and the result answers like a fresh
// CompileFlow.
func TestCompileFlowIntoAllocatesNothing(t *testing.T) {
	net, src, dst := randomNet(1234, 200)
	var buf PathBuf
	if f := net.CompileFlowInto(&buf, src.Addr, dst.Addr, 7); f.HopsToDst() == 0 {
		t.Fatal("test flow is unreachable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		net.CompileFlowInto(&buf, src.Addr, dst.Addr, 7)
	})
	if allocs != 0 {
		t.Errorf("CompileFlowInto allocates %v times per flow, want 0", allocs)
	}
	reused := net.CompileFlowInto(&buf, src.Addr, dst.Addr, 7)
	fresh := net.CompileFlow(src.Addr, dst.Addr, 7)
	for ttl := uint8(1); ttl <= 12; ttl++ {
		if got, want := reused.Probe(pt0, ttl, ICMPEcho, uint32(ttl)), fresh.Probe(pt0, ttl, ICMPEcho, uint32(ttl)); !sameReply(got, want) {
			t.Fatalf("ttl %d: reused-buffer flow %+v, fresh flow %+v", ttl, got, want)
		}
	}
}

// TestCompileFlowLongPath covers router paths longer than CompileFlowInto's
// stack buffer: every router of a 100-router chain still answers at its
// own TTL, and the target answers one TTL past the last router.
func TestCompileFlowLongPath(t *testing.T) {
	const n = 100
	c := buildChain(t, n)
	flow := c.net.CompileFlow(c.vp.Addr, c.target.Addr, 7)
	if got := flow.HopsToDst(); got != n {
		t.Fatalf("HopsToDst = %d, want %d", got, n)
	}
	for ttl := uint8(1); ttl < n; ttl++ {
		r := flow.Probe(t0, ttl, ICMPEcho, uint32(ttl))
		if r.Type != TTLExceeded || r.From != c.rs[ttl].Canonical {
			t.Fatalf("ttl %d: %v from %s, want TTLExceeded from %s", ttl, r.Type, r.From, c.rs[ttl].Canonical)
		}
	}
	if r := flow.Probe(t0, n, ICMPEcho, n); r.Type != EchoReply || r.From != c.target.Addr {
		t.Fatalf("ttl %d: %v from %s, want EchoReply from %s", n, r.Type, r.From, c.target.Addr)
	}
}

// TestFlowFamilyMatchesCompileFlowInto holds the two halves of a compile
// to the one-shot compile: a family resolved once and walked for flow IDs
// 0–63 answers every probe exactly as CompileFlowInto does for the same
// ID, at several TTLs, sequence numbers and protocols, with no fault plan
// and under an active one. The destinations cover v4, v6 and 4-in-6
// hosts, router interfaces, a bare prefix, an unresolvable address and an
// unregistered source, and both ECMP-branched and branch-free paths.
func TestFlowFamilyMatchesCompileFlowInto(t *testing.T) {
	net, src, dst := randomNet(1234, 200)
	rs := net.Routers()
	v6 := &Host{Addr: addr("2001:db8:99::2"), Router: rs[17], ISP: "t", RespondsToPing: true}
	mapped := &Host{Addr: netip.AddrFrom16(addr("192.168.0.77").As16()), Router: rs[42], ISP: "t", RespondsToPing: true}
	for _, h := range []*Host{v6, mapped} {
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	net.AddPrefix(netip.MustParsePrefix("198.51.100.0/24"), rs[99], "t")
	dsts := []netip.Addr{
		dst.Addr, v6.Addr, mapped.Addr,
		netip.AddrFrom16(dst.Addr.As16()), // dst's 4-in-6 form: not dst
		addr("198.51.100.7"), addr("203.0.113.9"),
	}
	for i := 0; i < len(rs); i += 5 {
		dsts = append(dsts, rs[i].ifaces[0].Addr)
	}
	srcs := []netip.Addr{src.Addr, addr("192.0.2.200")} // the second is unregistered

	var branched, branchFree int
	for _, plan := range []FaultPlan{{}, {Seed: 5, LinkLoss: 0.1, ICMPRate: 1.5, BlackoutFrac: 0.3, SilentFrac: 0.1, VPChurnFrac: 0.5}} {
		net.SetFaultPlan(plan)
		for _, s := range srcs {
			for _, d := range dsts {
				fam := net.Resolve(s, d)
				var famBuf, oneBuf PathBuf
				for id := uint16(0); id < 64; id++ {
					got := fam.FlowInto(&famBuf, id)
					want := net.CompileFlowInto(&oneBuf, s, d, id)
					if got.HopsToDst() != want.HopsToDst() || got.Silent() != want.Silent() {
						t.Fatalf("%v->%v flow %d: family %d hops (silent %v), compile %d (silent %v)",
							s, d, id, got.HopsToDst(), got.Silent(), want.HopsToDst(), want.Silent())
					}
					for _, proto := range []Proto{ICMPEcho, UDP} {
						for _, ttl := range []uint8{0, 1, 2, 3, 5, 8, 13, 21, 40} {
							for _, seq := range []uint32{0, 3, 77} {
								at := pt0.Add(time.Duration(seq) * 37 * time.Second)
								g, w := got.Probe(at, ttl, proto, seq), want.Probe(at, ttl, proto, seq)
								if !eqNoIPID(g, w) {
									t.Fatalf("%v->%v flow %d proto %v ttl %d seq %d: family %+v, compile %+v",
										s, d, id, proto, ttl, seq, g, w)
								}
							}
						}
					}
				}
				switch {
				case !fam.fixed:
					branched++
				case fam.flow.reachable:
					branchFree++
				}
			}
		}
	}
	if branched == 0 || branchFree == 0 {
		t.Errorf("destinations cover %d branched and %d branch-free families, want both", branched, branchFree)
	}
}

// TestFlowFamilyWalkAllocatesNothing pins a ping series' per-probe
// cost: once the family's PathBuf has grown, walking the path of another
// flow ID allocates nothing, on a branched path as on a fixed one.
func TestFlowFamilyWalkAllocatesNothing(t *testing.T) {
	net, src, _ := randomNet(1234, 200)
	covered := map[bool]bool{} // by whether the family's path is fixed
	for _, r := range net.Routers() {
		fam := net.Resolve(src.Addr, r.ifaces[0].Addr)
		var buf PathBuf
		if f := fam.FlowInto(&buf, 0); f.HopsToDst() == 0 || covered[fam.fixed] {
			continue
		}
		covered[fam.fixed] = true
		id := uint16(0)
		allocs := testing.AllocsPerRun(200, func() {
			id++
			fam.FlowInto(&buf, id)
		})
		if allocs != 0 {
			t.Errorf("%v->%v (fixed %v): FlowInto allocates %v times per flow, want 0", src.Addr, r.ifaces[0].Addr, fam.fixed, allocs)
		}
	}
	if !covered[false] || !covered[true] {
		t.Errorf("covered branched %v, fixed %v: want both", covered[false], covered[true])
	}
}
