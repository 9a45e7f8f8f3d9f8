package topogen

import (
	"math/rand"
	"net/netip"
	"regexp"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ipalloc"
	"repro/internal/netsim"
)

type mobileFixture struct {
	s   *Scenario
	att *MobileCarrier
	vz  *MobileCarrier
	tmo *MobileCarrier
	// caida is the measurement server the phones probe (San Diego).
	caida *netsim.Host
}

var mfx *mobileFixture

func getMobile(t *testing.T) *mobileFixture {
	t.Helper()
	if mfx != nil {
		return mfx
	}
	s := NewScenario(31)
	mfx = &mobileFixture{
		s:   s,
		att: s.BuildMobileCarrier(ATTMobileProfile()),
		vz:  s.BuildMobileCarrier(VerizonProfile()),
		tmo: s.BuildMobileCarrier(TMobileProfile()),
	}
	caida := &netsim.Host{
		Addr:           netip.MustParseAddr("2001:db8:ca1d:a::1"),
		Router:         s.TransitPoP(geo.MustByName("San Diego").Point),
		ISP:            "caida",
		Loc:            geo.MustByName("San Diego").Point,
		AccessDelay:    200 * time.Microsecond,
		RespondsToPing: true,
	}
	if err := s.Net.AddHost(caida); err != nil {
		t.Fatal(err)
	}
	mfx.caida = caida
	return mfx
}

func TestCarrierInventory(t *testing.T) {
	f := getMobile(t)
	if len(f.att.Regions) != 11 {
		t.Errorf("att-mobile regions = %d, want 11 (Table 7)", len(f.att.Regions))
	}
	if len(f.vz.Regions) != 29 {
		t.Errorf("verizon regions = %d, want 29 (Table 8)", len(f.vz.Regions))
	}
	// PGW counts match the specs.
	for _, c := range []*MobileCarrier{f.att, f.vz, f.tmo} {
		for _, r := range c.Regions {
			if len(r.PGWs) != r.Spec.PGWs {
				t.Errorf("%s/%s PGWs = %d, want %d", c.Profile.Name, r.Spec.Name, len(r.PGWs), r.Spec.PGWs)
			}
		}
	}
}

func TestAttachmentAddressBits(t *testing.T) {
	f := getMobile(t)
	// Attach near Los Angeles: AT&T's VNN region (user byte 0x6c, the
	// paper's example value).
	m := f.att.NewModem()
	at := geo.MustByName("Los Angeles").Point
	a := m.Attach(at)
	if got := ipalloc.V6Bits(a.UserAddr, 32, 8); got != 0x6c {
		t.Errorf("user region bits = %#x, want 0x6c", got)
	}
	if got := ipalloc.V6Bits(a.UserAddr, 0, 32); got != 0x26000380 {
		t.Errorf("user /32 = %#x", got)
	}
	// PGW bits cycle across re-attachments.
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		a := m.Attach(at)
		seen[ipalloc.V6Bits(a.UserAddr, 40, 4)] = true
	}
	if len(seen) != 5 {
		t.Errorf("attachments used %d PGWs, want all 5 in VNN", len(seen))
	}
}

func TestPhoneTracerouteShape(t *testing.T) {
	f := getMobile(t)
	m := f.att.NewModem()
	a := m.Attach(geo.MustByName("Chicago").Point)
	// Hop 1 must be the PGW replying from the user-prefix space with
	// the region and PGW bits (Fig. 16a).
	r1 := f.s.Net.Probe(f.s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: f.caida.Addr, TTL: 1, FlowID: 1})
	if r1.Type != netsim.TTLExceeded {
		t.Fatalf("hop1 = %v", r1.Type)
	}
	if got := ipalloc.V6Bits(r1.From, 0, 32); got != 0x26000380 {
		t.Errorf("hop1 /32 = %#x, want user prefix", got)
	}
	if got := ipalloc.V6Bits(r1.From, 32, 8); got != 0xb0 {
		t.Errorf("hop1 region bits = %#x, want 0xb0 (CHC)", got)
	}
	// Deeper hops come from the infrastructure prefix with region bits
	// 32-47 (Fig. 16a hops 3-4).
	var sawInfra bool
	for ttl := uint8(2); ttl <= 6; ttl++ {
		r := f.s.Net.Probe(f.s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: f.caida.Addr, TTL: ttl, FlowID: 1})
		if r.Type != netsim.TTLExceeded {
			continue
		}
		if ipalloc.V6Bits(r.From, 0, 32) == 0x26000300 &&
			ipalloc.V6Bits(r.From, 32, 16) == 0x20b0 {
			sawInfra = true
		}
	}
	if !sawInfra {
		t.Error("no infrastructure hop with CHC region bits")
	}
	// The phone reaches the external destination.
	end := f.s.Net.Probe(f.s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: f.caida.Addr, TTL: 30, FlowID: 1})
	if end.Type != netsim.EchoReply {
		t.Errorf("destination unreachable: %v", end.Type)
	}
}

func TestInfraBlocksDstProbes(t *testing.T) {
	f := getMobile(t)
	m := f.vz.NewModem()
	a := m.Attach(geo.MustByName("Vista").Point)
	pgw := a.PGW.Router
	// Probing the PGW's own address gets nothing, even from inside.
	if r := f.s.Net.Probe(f.s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: pgw.Canonical, TTL: 30}); r.Type != netsim.Timeout {
		t.Errorf("packet-core infrastructure answered a dst-addressed probe: %v", r.Type)
	}
}

func TestVerizonSpeedtestNames(t *testing.T) {
	f := getMobile(t)
	found := 0
	for _, e := range f.s.DNS.ScanSnapshotParallel(mustCompile(`\.ost\.myvzw\.com$`), 1) {
		_ = e
		found++
	}
	if found != len(f.vz.Regions) {
		t.Errorf("speedtest names = %d, want %d", found, len(f.vz.Regions))
	}
}

func TestTMobileGulfAnomaly(t *testing.T) {
	f := getMobile(t)
	m := f.tmo.NewModem()
	pensacola := geo.MustByName("Pensacola").Point
	// The two nearest T-Mobile sites to the Gulf coast are far away;
	// one should be the Charleston, SC site.
	sawDistant := false
	for i := 0; i < 6; i++ {
		a := m.Attach(pensacola)
		d := geo.DistanceKm(pensacola, a.PGW.Region.City.Point)
		if d > 500 {
			sawDistant = true
		}
	}
	if !sawDistant {
		t.Error("Gulf-coast attachments never landed on a distant EdgeCO")
	}
}

func TestTMobileUsesMultipleProviders(t *testing.T) {
	f := getMobile(t)
	m := f.tmo.NewModem()
	at := geo.MustByName("Chicago").Point
	providers := map[string]bool{}
	for i := 0; i < 8; i++ {
		a := m.Attach(at)
		providers[a.PGW.Region.Provider] = true
	}
	if len(providers) < 2 {
		t.Errorf("attachments used %d providers, want >= 2", len(providers))
	}
}

func TestMobileLatencyGeography(t *testing.T) {
	f := getMobile(t)
	// AT&T from Montana: the nearest mobile datacenter is far away, so
	// latency to San Diego is much higher than from Los Angeles.
	mMT := f.att.NewModem()
	aMT := mMT.Attach(geo.MustByName("Billings").Point)
	mLA := f.att.NewModem()
	aLA := mLA.Attach(geo.MustByName("Los Angeles").Point)
	rttOf := func(a Attachment) time.Duration {
		var min time.Duration
		for i := 0; i < 10; i++ {
			r := f.s.Net.Probe(f.s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: f.caida.Addr, TTL: 40, Seq: uint32(i), FlowID: 9})
			if r.Type != netsim.EchoReply {
				continue
			}
			if min == 0 || r.RTT < min {
				min = r.RTT
			}
		}
		return min
	}
	mt, la := rttOf(aMT), rttOf(aLA)
	if mt == 0 || la == 0 {
		t.Fatalf("rtts: MT=%v LA=%v", mt, la)
	}
	if mt < la+10*time.Millisecond {
		t.Errorf("Montana RTT %v should far exceed LA RTT %v", mt, la)
	}
}

func mustCompile(s string) *regexp.Regexp { return regexp.MustCompile(s) }

func TestVerizonStationarySwitching(t *testing.T) {
	f := getMobile(t)
	m := f.vz.NewModem()
	at := geo.MustByName("Vista").Point
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		a := m.Attach(at)
		counts[a.PGW.Region.Spec.Name]++
	}
	if counts["VISTCA"] == 0 {
		t.Fatalf("never attached to the home site: %v", counts)
	}
	// §7.2.2: occasional switches to the neighboring EdgeCO of the same
	// backbone region (AZUSCA under LAX), and nowhere else.
	if counts["AZUSCA"] == 0 {
		t.Errorf("no stationary switches to the neighbor site: %v", counts)
	}
	for name, n := range counts {
		if name != "VISTCA" && name != "AZUSCA" {
			t.Errorf("attached to %s (%d times); switching must stay within the backbone region", name, n)
		}
	}
	if frac := float64(counts["AZUSCA"]) / 300; frac > 0.15 {
		t.Errorf("switch fraction %.2f; should be occasional", frac)
	}
}

// TestInCarrierPathsCoincide pins the §7.1.1 observation that let the
// paper reduce to a single traceroute destination: within the mobile
// network, paths to different external destinations are identical.
func TestInCarrierPathsCoincide(t *testing.T) {
	f := getMobile(t)
	s := f.s
	other := &netsim.Host{
		Addr:           netip.MustParseAddr("2001:db8:a5:2::1"),
		Router:         s.TransitPoP(geo.MustByName("Chicago").Point),
		ISP:            "neighbor-as",
		Loc:            geo.MustByName("Chicago").Point,
		RespondsToPing: true,
	}
	if err := s.Net.AddHost(other); err != nil {
		t.Fatal(err)
	}
	m := f.att.NewModem()
	a := m.Attach(geo.MustByName("Dallas").Point)
	inCarrier := func(dst netip.Addr) []netip.Addr {
		var hops []netip.Addr
		for ttl := uint8(1); ttl <= 12; ttl++ {
			r := s.Net.Probe(s.Epoch(), netsim.ProbeSpec{Src: a.Host.Addr, Dst: dst, TTL: ttl, FlowID: 1})
			if r.Type != netsim.TTLExceeded {
				continue
			}
			// In-carrier hops live in the user or infrastructure space.
			p := ipalloc.V6Bits(r.From, 0, 32)
			if p == 0x26000380 || p == 0x26000300 {
				hops = append(hops, r.From)
			}
		}
		return hops
	}
	h1 := inCarrier(f.caida.Addr)
	h2 := inCarrier(other.Addr)
	if len(h1) == 0 {
		t.Fatal("no in-carrier hops")
	}
	if len(h1) != len(h2) {
		t.Fatalf("in-carrier hop counts differ: %v vs %v", h1, h2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Errorf("in-carrier hop %d differs: %v vs %v", i, h1[i], h2[i])
		}
	}
}

// sortRegionsByDistance is the retired region ranking: an insertion sort
// computing both regions' distances on every comparison. rankRegions
// must order the regions exactly as it does, ties included.
func sortRegionsByDistance(regs []*MobileRegion, p geo.Point) {
	for i := 1; i < len(regs); i++ {
		for j := i; j > 0 && geo.DistanceKm(p, regs[j-1].City.Point) > geo.DistanceKm(p, regs[j].City.Point); j-- {
			regs[j-1], regs[j] = regs[j], regs[j-1]
		}
	}
}

func TestRankRegionsMatchesInsertionSort(t *testing.T) {
	f := getMobile(t)
	rng := rand.New(rand.NewSource(3))
	for _, c := range []*MobileCarrier{f.att, f.vz, f.tmo} {
		pts := make([]geo.Point, 0, 1000+len(c.Regions))
		for i := 0; i < 1000; i++ {
			pts = append(pts, geo.Point{Lat: 18 + rng.Float64()*50, Lon: -160 + rng.Float64()*95})
		}
		// Points on the regions' own cities put distance ties first.
		for _, r := range c.Regions {
			pts = append(pts, r.City.Point)
		}
		for _, p := range pts {
			want := append([]*MobileRegion(nil), c.Regions...)
			sortRegionsByDistance(want, p)
			got := c.rankRegions(p)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s at %v: rank %d is %s, insertion sort has %s",
						c.Profile.Name, p, i, got[i].Spec.Name, want[i].Spec.Name)
				}
			}
		}
	}
}
