package netsim

import (
	"net/netip"
	"testing"
	"time"
)

func owners(ps ...string) []prefixOwner {
	out := make([]prefixOwner, len(ps))
	for i, p := range ps {
		out[i] = prefixOwner{prefix: netip.MustParsePrefix(p)}
	}
	return out
}

// sameReply compares replies ignoring IPID, which is a per-router
// counter that advances with every answered probe by design.
func sameReply(a, b Reply) bool {
	return a.Type == b.Type && a.From == b.From && a.RTT == b.RTT && a.ReplyTTL == b.ReplyTTL
}

func wantPrefix(t *testing.T, x *lpmIndex, dst, want string) {
	t.Helper()
	po := x.lookup(netip.MustParseAddr(dst))
	if want == "" {
		if po != nil {
			t.Errorf("lookup(%s) = %s, want miss", dst, po.prefix)
		}
		return
	}
	if po == nil {
		t.Fatalf("lookup(%s) = miss, want %s", dst, want)
	}
	if po.prefix != netip.MustParsePrefix(want) {
		t.Errorf("lookup(%s) = %s, want %s", dst, po.prefix, want)
	}
}

func TestLPMNestedPrefixes(t *testing.T) {
	x := buildLPM(owners("100.64.0.0/10", "100.64.0.0/12", "100.64.0.0/16"))
	wantPrefix(t, x, "100.64.1.1", "100.64.0.0/16") // innermost wins
	wantPrefix(t, x, "100.65.0.1", "100.64.0.0/12") // outside the /16
	wantPrefix(t, x, "100.90.0.1", "100.64.0.0/10") // outside the /12
	wantPrefix(t, x, "203.0.113.1", "")             // outside everything
}

func TestLPMPointToPointMates(t *testing.T) {
	// A /31 point-to-point pair nested in a /30: the mate addresses of
	// the /31 must resolve to it, the other half of the /30 to the /30.
	x := buildLPM(owners("10.9.0.0/30", "10.9.0.0/31"))
	wantPrefix(t, x, "10.9.0.0", "10.9.0.0/31")
	wantPrefix(t, x, "10.9.0.1", "10.9.0.0/31")
	wantPrefix(t, x, "10.9.0.2", "10.9.0.0/30")
	wantPrefix(t, x, "10.9.0.3", "10.9.0.0/30")
	wantPrefix(t, x, "10.9.0.4", "")
}

func TestLPMMixedFamilies(t *testing.T) {
	// A v6 table length longer than 32 bits must not break v4 lookups
	// (Addr.Prefix errors on a too-long length; the index skips it).
	x := buildLPM(owners("2001:db8::/48", "10.0.0.0/8"))
	wantPrefix(t, x, "2001:db8::1", "2001:db8::/48")
	wantPrefix(t, x, "10.1.2.3", "10.0.0.0/8")
	wantPrefix(t, x, "2001:db9::1", "")
}

func TestLPMFirstDeclarationWins(t *testing.T) {
	rA, rB := &Router{Name: "a"}, &Router{Name: "b"}
	x := buildLPM([]prefixOwner{
		{prefix: netip.MustParsePrefix("172.16.0.0/12"), router: rA},
		{prefix: netip.MustParsePrefix("172.16.0.0/12"), router: rB},
	})
	po := x.lookup(netip.MustParseAddr("172.16.5.5"))
	if po == nil || po.router != rA {
		t.Fatalf("duplicate prefix: got %+v, want first declaration (router a)", po)
	}
}

func TestShortcut24BeatsLongerGeneralPrefix(t *testing.T) {
	// The /24 shortcut table is consulted before the general LPM index
	// (legacy resolution order), so a /24 owned by the VP's gateway wins
	// over a nested /26 owned by a distant router.
	c := buildChain(t, 3)
	c.net.AddPrefix(netip.MustParsePrefix("100.64.5.0/24"), c.rs[0], "testnet")
	c.net.AddPrefix(netip.MustParsePrefix("100.64.5.0/26"), c.rs[2], "testnet")
	r := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: addr("100.64.5.5"), TTL: 1})
	// Owned by the source's own router: no TTL-consuming hop ever
	// answers, so the probe times out instead of expiring toward rs[2].
	if r.Type != Timeout {
		t.Errorf("/24-shortcut dst = %v, want timeout at the gateway", r.Type)
	}
}

func TestFIBInvalidatedByAddPrefix(t *testing.T) {
	c := buildChain(t, 3)
	c.net.AddPrefix(netip.MustParsePrefix("100.64.0.0/10"), c.rs[2], "testnet")
	// Warm the compiled FIB: routed toward rs[2], expires at hop 1.
	if r := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: addr("100.64.5.5"), TTL: 1}); r.Type != TTLExceeded {
		t.Fatalf("warmup probe = %v, want ttl-exceeded", r.Type)
	}
	// A longer general prefix declared afterwards must take effect: the
	// destination now belongs to the gateway router, so the same probe
	// dies unanswered instead of expiring downstream.
	c.net.AddPrefix(netip.MustParsePrefix("100.64.5.0/26"), c.rs[0], "testnet")
	if r := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: addr("100.64.5.5"), TTL: 1}); r.Type != Timeout {
		t.Errorf("post-AddPrefix probe = %v, want timeout (stale FIB?)", r.Type)
	}
}

// TestPathCacheInvalidatedByMutation probes a flow (compiled and
// one-shot), mutates the topology, and checks that a flow compiled
// after Connect or AddTunnel, and every one-shot probe, answers exactly
// like a fresh network built with the mutation in place from the
// start: nothing compiled before a mutation leaks into later flows.
func TestPathCacheInvalidatedByMutation(t *testing.T) {
	spec := func(c *chain, ttl uint8) ProbeSpec {
		return ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl, Proto: ICMPEcho, FlowID: 9, Seq: uint32(ttl)}
	}
	warm := func(c *chain) {
		f := c.net.CompileFlow(c.vp.Addr, c.target.Addr, 9)
		for ttl := uint8(1); ttl <= 8; ttl++ {
			f.Probe(t0, ttl, ICMPEcho, uint32(ttl))
			c.net.Probe(t0, spec(c, ttl))
		}
	}
	compare := func(t *testing.T, mutated, fresh *chain) {
		t.Helper()
		mf := mutated.net.CompileFlow(mutated.vp.Addr, mutated.target.Addr, 9)
		ff := fresh.net.CompileFlow(fresh.vp.Addr, fresh.target.Addr, 9)
		for ttl := uint8(1); ttl <= 8; ttl++ {
			got := mutated.net.Probe(t0, spec(mutated, ttl))
			want := fresh.net.Probe(t0, spec(fresh, ttl))
			if !sameReply(got, want) {
				t.Errorf("ttl %d: mutated net %+v, fresh net %+v", ttl, got, want)
			}
			if g, w := mf.Probe(t0, ttl, ICMPEcho, uint32(ttl)), ff.Probe(t0, ttl, ICMPEcho, uint32(ttl)); !sameReply(g, w) {
				t.Errorf("ttl %d: mutated flow %+v, fresh flow %+v", ttl, g, w)
			}
		}
	}

	t.Run("connect", func(t *testing.T) {
		mutated, fresh := buildChain(t, 5), buildChain(t, 5)
		warm(mutated)
		for _, c := range []*chain{mutated, fresh} {
			// Shortcut link past the middle routers: the flow's visible
			// path shrinks, so stale compiled paths would be detectable.
			if _, err := c.net.ConnectRouters(c.rs[0], c.rs[4], addr("10.200.0.1"), addr("10.200.0.2"), time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		compare(t, mutated, fresh)
	})

	t.Run("tunnel", func(t *testing.T) {
		mutated, fresh := buildChain(t, 5), buildChain(t, 5)
		warm(mutated)
		for _, c := range []*chain{mutated, fresh} {
			c.net.AddTunnel(c.rs[1], c.rs[3])
		}
		compare(t, mutated, fresh)
	})
}

// TestFlowProbeMatchesNetworkProbe pins the compiled fast path to the
// uncompiled entry point across protocols, TTLs, and sequence numbers.
func TestFlowProbeMatchesNetworkProbe(t *testing.T) {
	c := buildChain(t, 4)
	c.net.AddTunnel(c.rs[1], c.rs[2])
	for _, proto := range []Proto{ICMPEcho, UDP} {
		flow := c.net.CompileFlow(c.vp.Addr, c.target.Addr, 21)
		for ttl := uint8(0); ttl <= 10; ttl++ {
			for seq := uint32(0); seq < 3; seq++ {
				got := flow.Probe(t0, ttl, proto, seq)
				want := c.net.Probe(t0, ProbeSpec{
					Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl,
					Proto: proto, FlowID: 21, Seq: seq,
				})
				if !sameReply(got, want) {
					t.Fatalf("proto %v ttl %d seq %d: flow %+v, network %+v", proto, ttl, seq, got, want)
				}
			}
		}
	}
}
