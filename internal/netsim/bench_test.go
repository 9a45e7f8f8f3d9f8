package netsim

// Microbenchmarks for the simulator's hot paths; campaign cost is
// dominated by Probe, so its throughput bounds every study's runtime.

import (
	"testing"
	"time"
)

func benchNet(b *testing.B, n int) (*Network, *Host, *Host) {
	b.Helper()
	net, src, dst := randomNet(1234, n)
	// Warm the route cache the way campaigns do.
	net.Probe(pt0, ProbeSpec{Src: src.Addr, Dst: dst.Addr, TTL: 4})
	return net, src, dst
}

func BenchmarkProbeWarmCache(b *testing.B) {
	net, src, dst := benchNet(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Probe(pt0, ProbeSpec{Src: src.Addr, Dst: dst.Addr, TTL: uint8(i%12 + 1), Seq: uint32(i)})
	}
}

// BenchmarkProbeCompiledFlow measures the replay fast path: the flow is
// resolved once and every probe indexes into the compiled hop sequence.
// This is the loop traceroute and TTL-limited ping drive;
// TestFlowProbeAllocatesNothing pins it at zero allocations.
func BenchmarkProbeCompiledFlow(b *testing.B) {
	net, src, dst := benchNet(b, 200)
	flow := net.CompileFlow(src.Addr, dst.Addr, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.Probe(pt0, uint8(i%12+1), ICMPEcho, uint32(i))
	}
}

func BenchmarkProbeColdRoutes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, src, dst := randomNet(int64(i), 200)
		b.StartTimer()
		net.Probe(pt0, ProbeSpec{Src: src.Addr, Dst: dst.Addr, TTL: 8})
	}
}

func BenchmarkTracerouteEquivalent(b *testing.B) {
	// A full 20-TTL sweep, the unit of campaign work.
	net, src, dst := benchNet(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ttl := uint8(1); ttl <= 20; ttl++ {
			r := net.Probe(pt0, ProbeSpec{Src: src.Addr, Dst: dst.Addr, TTL: ttl, Seq: uint32(i)})
			if r.Type == EchoReply {
				break
			}
		}
	}
}

func BenchmarkShortestPaths(b *testing.B) {
	net, src, _ := randomNet(99, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete(net.spt, src.Router.ID)
		net.shortestPaths(src.Router.ID)
	}
}

func BenchmarkIPIDGeneration(b *testing.B) {
	net, _, _ := randomNet(7, 4)
	r := net.Routers()[1]
	r.IPID = IPIDShared
	r.IPIDVelocity = 100
	at := pt0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.nextIPID(at, nil)
		at = at.Add(time.Millisecond)
	}
}
