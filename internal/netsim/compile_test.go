package netsim

import "testing"

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
// its source's shortest-path tree is cached: the compiledPath and its
// visible-hop slice. The router walk lives in a stack buffer.
func TestCompileFlowAllocs(t *testing.T) {
	net, src, dst := randomNet(1234, 200)
	if f := net.CompileFlow(src.Addr, dst.Addr, 7); f.HopsToDst() == 0 {
		t.Fatal("test flow is unreachable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		net.CompileFlow(src.Addr, dst.Addr, 7)
	})
	if allocs > 2 {
		t.Errorf("CompileFlow allocates %v times per flow, want at most 2", allocs)
	}
}

// TestCompileFlowLongPath covers router paths longer than compilePath's
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
