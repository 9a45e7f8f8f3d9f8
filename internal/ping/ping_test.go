package ping

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func testNet(t testing.TB) (*netsim.Network, *netsim.Host, *netsim.Host, []*netsim.Router) {
	t.Helper()
	net := netsim.New(23)
	rs := make([]*netsim.Router, 4)
	for i := range rs {
		rs[i] = net.AddRouter(&netsim.Router{Name: fmt.Sprintf("r%d", i+1), ISP: "t", CO: fmt.Sprintf("co%d", i+1)})
	}
	for i := 0; i+1 < len(rs); i++ {
		if _, err := net.ConnectRouters(rs[i], rs[i+1],
			addr(fmt.Sprintf("10.0.%d.1", i)), addr(fmt.Sprintf("10.0.%d.2", i)), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	vp := &netsim.Host{Addr: addr("192.168.1.1"), Router: rs[0], ISP: "t", RespondsToPing: true}
	tgt := &netsim.Host{Addr: addr("192.168.9.1"), Router: rs[3], ISP: "t", RespondsToPing: true}
	for _, h := range []*netsim.Host{vp, tgt} {
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return net, vp, tgt, rs
}

func clock() *vclock.Clock {
	return vclock.New(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
}

func TestPingSeries(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	p := &Pinger{Net: net, Clock: clock()}
	s := p.Ping(vp.Addr, tgt.Addr, 100)
	if s.Sent != 100 || s.Received != 100 {
		t.Fatalf("sent %d received %d", s.Sent, s.Received)
	}
	min, ok := s.Min()
	if !ok {
		t.Fatal("no min")
	}
	med, _ := s.Median()
	// 3 links * 1ms * 2 = 6ms base RTT.
	if min < 6*time.Millisecond || min > 7*time.Millisecond {
		t.Errorf("min RTT = %v, want ~6ms", min)
	}
	if med < min {
		t.Errorf("median %v < min %v", med, min)
	}
	// With 100 samples of bounded jitter, min should be close to the
	// jitter-free floor (within the 400us jitter bound).
	if med-min > 500*time.Microsecond {
		t.Errorf("median-min spread = %v, want < jitter bound", med-min)
	}
}

func TestPingUnresponsive(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	tgt.RespondsToPing = false
	p := &Pinger{Net: net, Clock: clock()}
	s := p.Ping(vp.Addr, tgt.Addr, 5)
	if s.Received != 0 {
		t.Errorf("received %d from silent host", s.Received)
	}
	if _, ok := s.Min(); ok {
		t.Error("Min() on empty series claims a value")
	}
	if _, ok := s.Median(); ok {
		t.Error("Median() on empty series claims a value")
	}
}

func TestTTLLimitedElicitsPenultimate(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	// The destination does not answer pings, as with AT&T customers.
	tgt.RespondsToPing = false
	p := &Pinger{Net: net, Clock: clock()}
	// Hop 3 is the last router (r4) before the host: its inbound
	// interface is 10.0.2.2.
	s, from := p.TTLLimited(vp.Addr, tgt.Addr, 3, 20)
	if s.Received != 20 {
		t.Fatalf("received %d/20", s.Received)
	}
	if from != addr("10.0.2.2") {
		t.Errorf("TTL-limited replies from %v, want 10.0.2.2", from)
	}
	min, _ := s.Min()
	// 3 links but reply comes from hop 3: ~6ms RTT.
	if min < 5*time.Millisecond || min > 8*time.Millisecond {
		t.Errorf("penultimate RTT = %v", min)
	}
}

func TestPingAdvancesClock(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	c := clock()
	p := &Pinger{Net: net, Clock: c}
	before := c.Now()
	p.Ping(vp.Addr, tgt.Addr, 10)
	if !c.Now().After(before.Add(50 * time.Millisecond)) {
		t.Error("clock did not advance through ping intervals")
	}
}

// TestPingAllocs pins a series' allocations whatever its length: the
// RTT slice, sized at the first reply, and the hop storage of the one
// path buffer every probe's flow walks into. A walk per probe allocates
// nothing once that buffer has grown.
func TestPingAllocs(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	p := &Pinger{Net: net, Clock: clock()}
	for _, n := range []int{1, 16, 256} {
		allocs := testing.AllocsPerRun(20, func() {
			if s := p.Ping(vp.Addr, tgt.Addr, n); s.Received != n {
				t.Fatalf("received %d/%d", s.Received, n)
			}
		})
		if allocs != 2 {
			t.Errorf("Ping of %d probes allocates %v times, want 2 (RTT slice and path buffer)", n, allocs)
		}
	}
}

var seriesSink Series

// BenchmarkPingSeries measures a 100-probe echo series, the unit of the
// cloud-latency figures: one flow family resolved per series, one path
// walk per probe.
func BenchmarkPingSeries(b *testing.B) {
	net, vp, tgt, _ := testNet(b)
	p := &Pinger{Net: net, Clock: clock()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seriesSink = p.Ping(vp.Addr, tgt.Addr, 100)
	}
}
