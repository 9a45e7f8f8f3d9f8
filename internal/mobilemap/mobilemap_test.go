package mobilemap

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/cellgeo"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/ship"
	"repro/internal/topogen"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

type fixture struct {
	s        *topogen.Scenario
	carriers map[string]*topogen.MobileCarrier
	rounds   map[string][]ship.Round
	analyses map[string]*Analysis
}

var fx *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	s := topogen.NewScenario(51)
	carriers := map[string]*topogen.MobileCarrier{
		"att":     s.BuildMobileCarrier(topogen.ATTMobileProfile()),
		"verizon": s.BuildMobileCarrier(topogen.VerizonProfile()),
		"tmobile": s.BuildMobileCarrier(topogen.TMobileProfile()),
	}
	target := &netsim.Host{
		Addr:           netip.MustParseAddr("2001:db8:a5::1"),
		Router:         s.TransitPoP(geo.MustByName("Chicago").Point),
		ISP:            "neighbor-as",
		Loc:            geo.MustByName("Chicago").Point,
		RespondsToPing: true,
	}
	if err := s.Net.AddHost(target); err != nil {
		t.Fatal(err)
	}
	server := &netsim.Host{
		Addr:           netip.MustParseAddr("2001:db8:ca1d::1"),
		Router:         s.TransitPoP(geo.MustByName("San Diego").Point),
		ISP:            "caida",
		Loc:            geo.MustByName("San Diego").Point,
		RespondsToPing: true,
	}
	if err := s.Net.AddHost(server); err != nil {
		t.Fatal(err)
	}
	rounds := map[string][]ship.Round{}
	analyses := map[string]*Analysis{}
	for name, carrier := range carriers {
		c := &ship.Campaign{
			Net:     s.Net,
			Clock:   vclock.New(s.Epoch()),
			Modem:   carrier.NewModem(),
			CellDB:  cellgeo.NewDB(0.25),
			Targets: []netip.Addr{target.Addr},
			Server:  server.Addr,
			Mode:    traceroute.Parallel,
		}
		var rs []ship.Round
		for _, it := range ship.Shipments() {
			rs = append(rs, c.Run(it)...)
		}
		rounds[name] = rs
		analyses[name] = AnalyzeParallel(rs, s.DNS, 1)
	}
	fx = &fixture{s: s, carriers: carriers, rounds: rounds, analyses: analyses}
	return fx
}

func TestFig16aATTFields(t *testing.T) {
	a := getFixture(t).analyses["att"]
	if a.UserPrefixLen != 32 {
		t.Errorf("user prefix = /%d, want /32 (2600:380)", a.UserPrefixLen)
	}
	if len(a.GeoLevels) != 1 {
		t.Fatalf("geo levels = %+v, want exactly one (/40 region)", a.GeoLevels)
	}
	if a.GeoLevels[0].PrefixLen != 40 {
		t.Errorf("region level = /%d, want /40", a.GeoLevels[0].PrefixLen)
	}
	if a.RegionField != (Field{Start: 32, Len: 8}) {
		t.Errorf("region field = %v, want bits 32-39", a.RegionField)
	}
	if a.PGWField != (Field{Start: 40, Len: 4}) {
		t.Errorf("pgw field = %v, want bits 40-43", a.PGWField)
	}
	if a.Arch != ArchSingleEdge {
		t.Errorf("arch = %v, want single-edge", a.Arch)
	}
}

func TestTable7ATTPGWCounts(t *testing.T) {
	f := getFixture(t)
	a := f.analyses["att"]
	truth := f.carriers["att"]
	// The journey visits most regions; every visited region's inferred
	// PGW count must match the ground truth (Table 7).
	matched := 0
	for _, reg := range truth.Regions {
		got, visited := a.PGWCounts[reg.Spec.UserBits]
		if !visited {
			continue
		}
		matched++
		// Sparse visits may miss a gateway or two; substantial regions
		// should be within one of truth.
		if diff := got - len(reg.PGWs); diff > 0 || diff < -2 {
			t.Errorf("region %s: inferred %d PGWs, truth %d", reg.Spec.Name, got, len(reg.PGWs))
		}
	}
	if matched < 9 {
		t.Errorf("only %d/11 regions observed", matched)
	}
	// Dwell regions get full coverage: Chicago (CHC) holds parcels.
	chc := a.PGWCounts[0xb0]
	if chc != 5 {
		t.Errorf("CHC PGWs = %d, want 5", chc)
	}
}

func TestFig16bVerizonFields(t *testing.T) {
	a := getFixture(t).analyses["verizon"]
	if a.UserPrefixLen != 24 {
		t.Errorf("user prefix = /%d, want /24 (2600:10xx)", a.UserPrefixLen)
	}
	if len(a.GeoLevels) < 2 {
		t.Fatalf("geo levels = %+v, want a backbone level and an EdgeCO level", a.GeoLevels)
	}
	deepest := a.GeoLevels[len(a.GeoLevels)-1]
	if deepest.PrefixLen != 40 {
		t.Errorf("EdgeCO level = /%d, want /40", deepest.PrefixLen)
	}
	// Backbone level changes strictly less often than the EdgeCO level.
	first := a.GeoLevels[0]
	if first.Changes >= deepest.Changes {
		t.Errorf("backbone level changes (%d) should be fewer than EdgeCO level changes (%d)", first.Changes, deepest.Changes)
	}
	if a.PGWField != (Field{Start: 40, Len: 4}) {
		t.Errorf("pgw field = %v, want bits 40-43", a.PGWField)
	}
	if a.Arch != ArchMultiEdge {
		t.Errorf("arch = %v, want multi-edge", a.Arch)
	}
	// The alter.net backbone shows up as the single provider.
	if len(a.Providers) != 1 || a.Providers[0] != "alter" {
		t.Errorf("providers = %v, want [alter]", a.Providers)
	}
}

func TestTable8VerizonPGWCounts(t *testing.T) {
	f := getFixture(t)
	a := f.analyses["verizon"]
	truth := f.carriers["verizon"]
	matched, bad := 0, 0
	for _, reg := range truth.Regions {
		got, visited := a.PGWCounts[reg.Spec.UserBits]
		if !visited {
			continue
		}
		matched++
		if got > len(reg.PGWs) {
			bad++
			t.Errorf("region %s: inferred %d PGWs, truth %d", reg.Spec.Name, got, len(reg.PGWs))
		}
	}
	if matched < 15 {
		t.Errorf("only %d/29 Verizon regions observed", matched)
	}
}

func TestFig16cTMobileFields(t *testing.T) {
	a := getFixture(t).analyses["tmobile"]
	if a.UserPrefixLen != 32 {
		t.Errorf("user prefix = /%d, want /32 (2607:fb90)", a.UserPrefixLen)
	}
	if a.RegionField.Len != 0 {
		t.Errorf("region field = %v, want none (no geographic user bits)", a.RegionField)
	}
	if a.PGWField != (Field{Start: 32, Len: 8}) {
		t.Errorf("pgw field = %v, want bits 32-39", a.PGWField)
	}
	if a.Arch != ArchMultiBackbone {
		t.Errorf("arch = %v, want multi-backbone", a.Arch)
	}
	if len(a.Providers) < 2 {
		t.Errorf("providers = %v, want several wholesale backbones", a.Providers)
	}
}

func TestVerizonRouterFieldLockstep(t *testing.T) {
	a := getFixture(t).analyses["verizon"]
	if !a.RouterBase.IsValid() {
		t.Fatal("no infrastructure base inferred")
	}
	if got := a.RouterBase.String(); got[:9] != "2001:4888" {
		t.Errorf("router base = %s, want 2001:4888::", got)
	}
	if a.RouterField.Len == 0 {
		t.Error("no router region field found (Fig. 16b bits 64-75)")
	} else if a.RouterField.Start < 60 || a.RouterField.Start > 72 {
		t.Errorf("router field = %v, want around bits 64-75", a.RouterField)
	}
}

func TestATTRouterField(t *testing.T) {
	a := getFixture(t).analyses["att"]
	if !a.RouterBase.IsValid() {
		t.Fatal("no infrastructure base inferred")
	}
	if got := a.RouterBase.String()[:8]; got != "2600:300" {
		t.Errorf("router base = %s, want 2600:300::", a.RouterBase)
	}
	if a.RouterField.Len == 0 {
		t.Error("no router region field found (Fig. 16a bits 32-47)")
	} else if a.RouterField.Start != 32 && a.RouterField.Start != 36 && a.RouterField.Start != 40 {
		t.Errorf("router field = %v, want within bits 32-47", a.RouterField)
	}
}

func TestAnalysisDeterministic(t *testing.T) {
	f := getFixture(t)
	a1 := AnalyzeParallel(f.rounds["att"], f.s.DNS, 1)
	a2 := AnalyzeParallel(f.rounds["att"], f.s.DNS, 1)
	if a1.RegionField != a2.RegionField || a1.PGWField != a2.PGWField || a1.Arch != a2.Arch {
		t.Error("analysis not deterministic")
	}
}

func TestEmptyRounds(t *testing.T) {
	a := AnalyzeParallel(nil, nil, 1)
	if a.Arch != ArchUnknown {
		t.Errorf("empty analysis arch = %v", a.Arch)
	}
	var none []ship.Round
	for i := 0; i < 3; i++ {
		none = append(none, ship.Round{At: time.Now()})
	}
	if got := AnalyzeParallel(none, nil, 1); got.Arch != ArchUnknown {
		t.Error("signal-less rounds should yield no inference")
	}
}
