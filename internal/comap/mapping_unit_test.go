package comap

// Unit tests for the Phase 1 mapping helpers.

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/dnsdb"
	"repro/internal/probesched"
	"repro/internal/symtab"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestP2PMate(t *testing.T) {
	tests := []struct {
		in   string
		bits int
		want string
		ok   bool
	}{
		{"10.0.0.1", 30, "10.0.0.2", true},
		{"10.0.0.2", 30, "10.0.0.1", true},
		{"10.0.0.0", 30, "", false}, // network address
		{"10.0.0.3", 30, "", false}, // broadcast address
		{"10.0.0.4", 31, "10.0.0.5", true},
		{"10.0.0.5", 31, "10.0.0.4", true},
		{"10.0.0.255", 31, "10.0.0.254", true},
	}
	for _, tt := range tests {
		got, ok := p2pMate(a(tt.in), tt.bits)
		if ok != tt.ok {
			t.Errorf("p2pMate(%s,/%d) ok=%v want %v", tt.in, tt.bits, ok, tt.ok)
			continue
		}
		if ok && got != a(tt.want) {
			t.Errorf("p2pMate(%s,/%d) = %v want %v", tt.in, tt.bits, got, tt.want)
		}
	}
	if _, ok := p2pMate(netip.MustParseAddr("2001:db8::1"), 31); ok {
		t.Error("IPv6 address accepted")
	}
}

func TestP2PMateInvolution(t *testing.T) {
	f := func(b4 [4]byte, pick bool) bool {
		addr := netip.AddrFrom4(b4)
		bits := 30
		if pick {
			bits = 31
		}
		m, ok := p2pMate(addr, bits)
		if !ok {
			return true
		}
		back, ok2 := p2pMate(m, bits)
		return ok2 && back == addr // mate of mate is self
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubnet30Neighbors(t *testing.T) {
	nbrs, n := subnet30Neighbors(a("10.0.0.5"))
	if n != 3 {
		t.Fatalf("neighbors = %v (n=%d)", nbrs, n)
	}
	want := map[string]bool{"10.0.0.4": true, "10.0.0.6": true, "10.0.0.7": true}
	for _, x := range nbrs[:n] {
		if !want[x.String()] {
			t.Errorf("unexpected neighbor %v", x)
		}
	}
	if _, n := subnet30Neighbors(a("2001:db8::1")); n != 0 {
		t.Error("IPv6 produced neighbors")
	}
}

func TestEnumerate24s(t *testing.T) {
	got := enumerate24s(netip.MustParsePrefix("10.1.0.0/22"))
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	want := []string{"10.1.0.1", "10.1.1.1", "10.1.2.1", "10.1.3.1"}
	for i, w := range want {
		if got[i] != a(w) {
			t.Errorf("[%d] = %v, want %v", i, got[i], w)
		}
	}
	// A prefix smaller than /24 yields one probe inside it.
	small := enumerate24s(netip.MustParsePrefix("10.9.9.128/25"))
	if len(small) != 1 || !netip.MustParsePrefix("10.9.9.128/25").Contains(small[0]) {
		t.Errorf("small prefix probes = %v", small)
	}
	if enumerate24s(netip.MustParsePrefix("2001:db8::/32")) != nil {
		t.Error("IPv6 prefix enumerated")
	}
}

// TestInitialMappingPriorities verifies dig-over-snapshot priority and
// ISP filtering in BuildMappingParallel's first stage.
func TestInitialMappingPriorities(t *testing.T) {
	dns := dnsdb.New()
	// Address with a fresh live name and a stale snapshot name.
	dns.SetLive(a("10.0.0.1"), "ae-1-ar01.fresh.or.bverton.comcast.net")
	dns.SetSnapshot(a("10.0.0.1"), "ae-1-ar01.stale.or.bverton.comcast.net")
	// Address named for another operator: not mapped for comcast.
	dns.SetSnapshot(a("10.0.0.2"), "agg1.sndgcaxk01m.socal.rr.com")
	// Subscriber name: never mapped.
	dns.SetSnapshot(a("10.0.0.3"), "c-10-0-0-3.hsd1.us.comcast.net")

	col := &Collection{
		Observed: map[netip.Addr]bool{
			a("10.0.0.1"): true, a("10.0.0.2"): true, a("10.0.0.3"): true,
		},
		FalsePairs:  map[[2]netip.Addr]bool{},
		DirectPairs: map[[2]netip.Addr]bool{},
	}
	m := BuildMappingParallel(col, dns, "comcast", 1)
	if got := m.CO[a("10.0.0.1")]; got != "bverton/fresh.or" {
		t.Errorf("priority mapping = %q, want the live name's CO", got)
	}
	if _, ok := m.CO[a("10.0.0.2")]; ok {
		t.Error("foreign-operator name mapped")
	}
	if _, ok := m.CO[a("10.0.0.3")]; ok {
		t.Error("subscriber name mapped")
	}
	if m.Stats.Initial != 1 || m.Stats.Final != 1 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

// TestSubnetRefinementVote rebuilds the Fig. 19 example: two paths show
// x followed by y and z; the mates y' and z' map to CO2, outvoting x's
// initial CO1 mapping.
func TestSubnetRefinementVote(t *testing.T) {
	dns := dnsdb.New()
	name := func(addr, co string) {
		dns.SetLive(a(addr), "ae-1-ar01."+co+".ca.socalx.comcast.net")
		dns.SetSnapshot(a(addr), "ae-1-ar01."+co+".ca.socalx.comcast.net")
	}
	name("10.0.0.1", "coone") // x: stale mapping says CO1
	// y = 10.0.0.5 (mate 10.0.0.6 -> CO2), z = 10.0.0.9 (mate .10 -> CO2)
	name("10.0.0.6", "cotwo")
	name("10.0.0.10", "cotwo")
	name("10.0.0.5", "cothree") // y itself: the next router
	name("10.0.0.9", "cothree")

	col := &Collection{
		Observed:    map[netip.Addr]bool{},
		FalsePairs:  map[[2]netip.Addr]bool{},
		DirectPairs: map[[2]netip.Addr]bool{},
		Paths: []Path{
			{Src: a("192.0.2.1"), Dst: a("198.51.100.1"),
				Hops: []netip.Addr{a("10.0.0.1"), a("10.0.0.5")}, Gaps: []bool{false, false}},
			{Src: a("192.0.2.1"), Dst: a("198.51.100.2"),
				Hops: []netip.Addr{a("10.0.0.1"), a("10.0.0.9")}, Gaps: []bool{false, false}},
		},
	}
	for _, p := range col.Paths {
		for _, h := range p.Hops {
			col.Observed[h] = true
		}
	}
	// Make the mates visible to the mapping universe via alias targets.
	col.AliasTargets = []netip.Addr{a("10.0.0.6"), a("10.0.0.10")}

	m := BuildMappingParallel(col, dns, "comcast", 1)
	if got := m.CO[a("10.0.0.1")]; got != "socalx/cotwo.ca" {
		t.Errorf("x remapped to %q, want CO2 (Fig. 19)", got)
	}
	if m.Stats.SubnetChanged != 1 {
		t.Errorf("SubnetChanged = %d, want 1", m.Stats.SubnetChanged)
	}
}

func TestInferP2PBitsFromOffsets(t *testing.T) {
	mk := func(addrs ...string) (*Collection, *Mapping) {
		col := &Collection{FalsePairs: map[[2]netip.Addr]bool{}, DirectPairs: map[[2]netip.Addr]bool{}}
		m := &Mapping{
			CO:    map[netip.Addr]string{},
			Syms:  symtab.New(0),
			COSym: map[netip.Addr]symtab.Sym{},
		}
		var hops []netip.Addr
		var gaps []bool
		for _, s := range addrs {
			hops = append(hops, a(s))
			gaps = append(gaps, false)
			m.CO[a(s)] = "r/c" + s
			m.COSym[a(s)] = m.Syms.Intern("r/c" + s)
		}
		col.Paths = []Path{{Hops: hops, Gaps: gaps}}
		return col, m
	}
	// /30 style: offsets 1 and 2 only.
	col, m := mk("10.0.0.1", "10.0.1.2", "10.0.2.1", "10.0.3.2", "10.0.4.1")
	if got := inferP2PBits(probesched.New(1, nil), col, m); got != 30 {
		t.Errorf("offsets {1,2} inferred /%d, want /30", got)
	}
	// /31 style: all offsets.
	col, m = mk("10.0.0.0", "10.0.1.3", "10.0.2.1", "10.0.3.2", "10.0.4.0", "10.0.5.3")
	if got := inferP2PBits(probesched.New(1, nil), col, m); got != 31 {
		t.Errorf("uniform offsets inferred /%d, want /31", got)
	}
	// No data: default /30.
	if got := inferP2PBits(probesched.New(1, nil), &Collection{}, &Mapping{COSym: map[netip.Addr]symtab.Sym{}}); got != 30 {
		t.Errorf("empty default = /%d", got)
	}
}
