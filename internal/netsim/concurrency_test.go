package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentProbesMatchSequential hammers one network from many
// goroutines — cold route cache, shared and per-interface IP-ID
// counters — and checks every reply matches a sequential rerun of the
// same probe. Run under -race this also proves the lock layout: the
// double-checked SPT cache and the atomic IP-ID counters.
func TestConcurrentProbesMatchSequential(t *testing.T) {
	c := buildChain(t, 6)
	for _, r := range c.rs {
		r.IPID = IPIDShared
		r.IPIDVelocity = 3
	}

	const goroutines = 8
	const perG = 200
	type probeKey struct {
		ttl uint8
		seq uint32
	}
	results := make([]map[probeKey]Reply, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		results[g] = make(map[probeKey]Reply, perG)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ttl := uint8(1 + (g+i)%8)
				seq := uint32(g*perG + i)
				r := c.net.Probe(t0, ProbeSpec{
					Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl,
					Proto: ICMPEcho, FlowID: 7, Seq: seq,
				})
				results[g][probeKey{ttl, seq}] = r
			}
		}()
	}
	wg.Wait()

	// Everything except the IP-ID (a counter shared across probes by
	// design) must equal a sequential rerun.
	for g := range results {
		for k, got := range results[g] {
			want := c.net.Probe(t0, ProbeSpec{
				Src: c.vp.Addr, Dst: c.target.Addr, TTL: k.ttl,
				Proto: ICMPEcho, FlowID: 7, Seq: k.seq,
			})
			if got.Type != want.Type || got.From != want.From ||
				got.RTT != want.RTT || got.ReplyTTL != want.ReplyTTL {
				t.Fatalf("probe ttl=%d seq=%d: concurrent %+v != sequential %+v",
					k.ttl, k.seq, got, want)
			}
		}
	}
}

// TestConcurrentRouteCacheBuild races many goroutines into a cold
// shortest-path-tree cache across distinct sources and checks the
// routes agree with a fresh network's sequential answers.
func TestConcurrentRouteCacheBuild(t *testing.T) {
	build := func() *chain {
		c := buildChain(t, 8)
		return c
	}
	hot := build()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ttl := uint8(1); ttl <= 8; ttl++ {
				hot.net.Probe(t0, ProbeSpec{Src: hot.vp.Addr, Dst: hot.target.Addr, TTL: ttl, FlowID: uint16(ttl)})
			}
		}()
	}
	wg.Wait()

	cold := build()
	for ttl := uint8(1); ttl <= 8; ttl++ {
		a := hot.net.Probe(t0, ProbeSpec{Src: hot.vp.Addr, Dst: hot.target.Addr, TTL: ttl, FlowID: 3, Seq: 99})
		b := cold.net.Probe(t0, ProbeSpec{Src: cold.vp.Addr, Dst: cold.target.Addr, TTL: ttl, FlowID: 3, Seq: 99})
		if a.Type != b.Type || a.From != b.From || a.RTT != b.RTT {
			t.Fatalf("ttl=%d: racing-built cache gives %+v, fresh network gives %+v", ttl, a, b)
		}
	}
}

// TestInvalidateRoutesSafe checks topology edits between probe batches
// reset the cache without racing in-flight probes (construction is
// documented single-threaded; this exercises the documented sequence:
// probe, edit, probe).
func TestInvalidateRoutesSafe(t *testing.T) {
	c := buildChain(t, 3)
	before := c.probe(2)
	if before.Type != TTLExceeded {
		t.Fatalf("before edit: %v", before.Type)
	}
	// A new parallel link with lower delay changes the best path.
	if _, err := c.net.ConnectRouters(c.rs[0], c.rs[2], addr("10.9.0.1"), addr("10.9.0.2"), 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	after := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: 1, Proto: ICMPEcho, FlowID: 7, Seq: 1})
	if after.From != addr("10.9.0.2") {
		t.Fatalf("after shortcut: hop 1 from %v, want 10.9.0.2", after.From)
	}
}

// TestConcurrentFirstTreeLookup races goroutines into the first lookup
// of one root's tree on a cold route table: every goroutine must get
// the one tree that was published, and it must match the reference
// build.
func TestConcurrentFirstTreeLookup(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := RandomRoutingNet(seed, 200)
		const goroutines = 8
		got := make([]*sptResult, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = n.shortestPaths(3)
			}()
		}
		close(start)
		wg.Wait()
		for g, r := range got {
			if r != got[0] {
				t.Fatalf("seed %d: goroutine %d got a different tree than goroutine 0", seed, g)
			}
		}
		if r := n.shortestPaths(3); r != got[0] {
			t.Fatalf("seed %d: a later lookup got a different tree than the racing ones", seed)
		}
		if err := ShortestPathsMatchReference(n, 3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestInvalidateRoutesDuringProbing drops the route table over and over
// while goroutines compile and probe flows: the topology never changes,
// so every reply must match a sequential run on a quiet network.
func TestInvalidateRoutesDuringProbing(t *testing.T) {
	net, src, dst := randomNet(77, 300)
	quiet, qsrc, qdst := randomNet(77, 300)
	want := make([]Reply, 64)
	for i := range want {
		want[i] = quiet.Probe(pt0, ProbeSpec{Src: qsrc.Addr, Dst: qdst.Addr, TTL: uint8(i%16 + 1), FlowID: uint16(i), Seq: uint32(i)})
	}
	stop, started := make(chan struct{}), make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		net.InvalidateRoutes()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
				net.InvalidateRoutes()
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf PathBuf
			for rep := 0; rep < 20; rep++ {
				for i, w := range want {
					f := net.CompileFlowInto(&buf, src.Addr, dst.Addr, uint16(i))
					if got := f.Probe(pt0, uint8(i%16+1), ICMPEcho, uint32(i)); !eqNoIPID(got, w) {
						errs <- fmt.Sprintf("probe %d under invalidation: %+v, quiet network %+v", i, got, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	invalidator.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRoutesRebuiltAfterGrowth looks routes up, then adds a router and a
// host behind it: the route table must grow with the router count, so
// the new host times out while it is unlinked (instead of indexing past
// the old trees), and answers through the new link once Connect wires
// it, exactly as on a network built with the router from the start.
func TestRoutesRebuiltAfterGrowth(t *testing.T) {
	grow := func(c *chain) (*Router, *Host) {
		r := c.net.AddRouter(&Router{Name: "r-new", ISP: "testnet"})
		h := &Host{Addr: addr("192.168.3.10"), Router: r, ISP: "testnet", RespondsToPing: true}
		if err := c.net.AddHost(h); err != nil {
			t.Fatal(err)
		}
		return r, h
	}
	link := func(c *chain, r *Router) {
		if _, err := c.net.ConnectRouters(c.rs[2], r, addr("10.7.0.1"), addr("10.7.0.2"), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	warm, fresh := buildChain(t, 4), buildChain(t, 4)
	if r := warm.probe(2); r.Type != TTLExceeded {
		t.Fatalf("warm-up probe: %v", r.Type)
	}
	wr, wh := grow(warm)
	fr, fh := grow(fresh)
	if got := len(warm.net.routes().trees); got != len(warm.net.Routers()) {
		t.Fatalf("route table has %d tree slots for %d routers", got, len(warm.net.Routers()))
	}
	if r := warm.net.Probe(t0, ProbeSpec{Src: warm.vp.Addr, Dst: wh.Addr, TTL: 8}); r.Type != Timeout {
		t.Fatalf("unlinked router's host answered %v", r.Type)
	}
	link(warm, wr)
	link(fresh, fr)
	for ttl := uint8(1); ttl <= 5; ttl++ {
		got := warm.net.Probe(t0, ProbeSpec{Src: warm.vp.Addr, Dst: wh.Addr, TTL: ttl, Seq: uint32(ttl)})
		want := fresh.net.Probe(t0, ProbeSpec{Src: fresh.vp.Addr, Dst: fh.Addr, TTL: ttl, Seq: uint32(ttl)})
		if !sameReply(got, want) {
			t.Fatalf("ttl %d: grown network %+v, fresh network %+v", ttl, got, want)
		}
	}
	if r := warm.net.Probe(t0, ProbeSpec{Src: warm.vp.Addr, Dst: wh.Addr, TTL: 8}); r.Type != EchoReply {
		t.Fatalf("linked router's host: %v, want echo reply", r.Type)
	}
}
