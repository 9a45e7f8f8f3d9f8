package core

import (
	"net/netip"
	"time"

	"repro/internal/cellgeo"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/mobilemap"
	"repro/internal/netsim"
	"repro/internal/ship"
	"repro/internal/topogen"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// MobileStudy is the §7 case study: the three carrier archetypes mapped
// with ShipTraceroute and IPv6 field inference.
type MobileStudy struct {
	Scenario *topogen.Scenario
	Carriers map[string]*topogen.MobileCarrier
	// Targets are the neighbor-AS traceroute destinations; Server is
	// the reference host for the latency map.
	Targets []netip.Addr
	Server  netip.Addr

	cfg      Config
	err      error // cfg's validate verdict: non-nil refuses every campaign
	seed     int64
	rounds   map[string][]ship.Round
	analyses map[string]*mobilemap.Analysis
}

// CarrierNames lists the studied carriers in stable order.
var CarrierNames = []string{"att-mobile", "tmobile", "verizon"}

// coverageBias models the carriers' differing rural coverage; the paper
// measured 82% (AT&T), 84% (Verizon), and 75% (T-Mobile) round success.
var coverageBias = map[string]float64{
	"att-mobile": 0.05,
	"verizon":    0.08,
	"tmobile":    -0.03,
}

// NewMobileStudy builds the mobile scenario: three carriers, targets in
// neighboring ASes, and a San Diego reference server. Options configure
// parallelism and resilience; with no options the study behaves
// exactly as it always has. Invalid options do not stop the build: Run,
// Rounds and Analysis report them instead.
func NewMobileStudy(seed int64, opts ...Option) *MobileStudy {
	cfg, err := buildConfig(opts)
	s := topogen.NewScenario(seed)
	st := &MobileStudy{
		Scenario: s,
		cfg:      cfg,
		err:      err,
		seed:     seed,
		Carriers: map[string]*topogen.MobileCarrier{
			"att-mobile": s.BuildMobileCarrier(topogen.ATTMobileProfile()),
			"verizon":    s.BuildMobileCarrier(topogen.VerizonProfile()),
			"tmobile":    s.BuildMobileCarrier(topogen.TMobileProfile()),
		},
		rounds:   map[string][]ship.Round{},
		analyses: map[string]*mobilemap.Analysis{},
	}
	st.cfg.installFaults(s.Net)
	add := func(city, addr string) netip.Addr {
		a := netip.MustParseAddr(addr)
		h := &netsim.Host{
			Addr:           a,
			Router:         s.TransitPoP(geo.MustByName(city).Point),
			ISP:            "neighbor-as",
			Loc:            geo.MustByName(city).Point,
			AccessDelay:    150 * time.Microsecond,
			RespondsToPing: true,
		}
		if err := s.Net.AddHost(h); err != nil {
			panic(err)
		}
		return a
	}
	st.Targets = []netip.Addr{
		add("Chicago", "2001:db8:a5::1"),
		add("Ashburn", "2001:db8:a5::2"),
	}
	st.Server = add("San Diego", "2001:db8:ca1d::1")
	return st
}

// Rounds runs (once) the full 12-shipment campaign for a carrier. It
// panics with the study's ErrInvalidConfig error when its options were
// rejected.
func (st *MobileStudy) Rounds(carrier string) []ship.Round {
	if st.err != nil {
		panic(st.err)
	}
	if rs, ok := st.rounds[carrier]; ok {
		return rs
	}
	c := &ship.Campaign{
		Net:          st.Scenario.Net,
		Clock:        vclock.New(st.Scenario.Epoch()),
		Modem:        st.Carriers[carrier].NewModem(),
		CellDB:       cellgeo.NewDB(0.25),
		Targets:      st.Targets,
		Server:       st.Server,
		Mode:         traceroute.Parallel,
		CoverageBias: coverageBias[carrier],
		Parallelism:  st.cfg.Parallelism,
		Resilience:   st.cfg.Resilience,
	}
	var rs []ship.Round
	for _, it := range ship.Shipments() {
		rs = append(rs, c.Run(it)...)
	}
	st.rounds[carrier] = rs
	return rs
}

// Analysis runs (once) the §7.2 inference for a carrier.
func (st *MobileStudy) Analysis(carrier string) *mobilemap.Analysis {
	if a, ok := st.analyses[carrier]; ok {
		return a
	}
	a := mobilemap.AnalyzeParallel(st.Rounds(carrier), st.Scenario.DNS, st.cfg.Parallelism)
	st.analyses[carrier] = a
	return a
}

// Figure15 reports the states traversed and per-carrier round success
// rates.
func (st *MobileStudy) Figure15() (states []string, successRates map[string]float64) {
	successRates = map[string]float64{}
	var all []ship.Round
	for _, name := range CarrierNames {
		rs := st.Rounds(name)
		successRates[name] = ship.SuccessRate(rs)
		all = append(all, rs...)
	}
	return ship.StatesCovered(all), successRates
}

// Figure14 compares stock (sequential) and ShipTraceroute (parallel)
// scamper on one measurement round: active time, energy, and projected
// battery life.
type Fig14Row struct {
	Mode        string
	Active      time.Duration
	EnergymAh   float64
	BatteryDays float64
}

// Figure14 runs one round in each mode from a phone attached near the
// origin and prices it with the battery model.
func (st *MobileStudy) Figure14() []Fig14Row {
	model := energy.Default()
	modem := st.Carriers["att-mobile"].NewModem()
	att := modem.Attach(geo.MustByName("San Diego").Point)
	clock := vclock.New(st.Scenario.Epoch())
	// The paper's round probed 266 destinations; reuse the study's
	// targets cyclically to match the per-round probe volume.
	var rows []Fig14Row
	for _, mode := range []traceroute.Mode{traceroute.Sequential, traceroute.Parallel} {
		eng := &traceroute.Engine{Net: st.Scenario.Net, Clock: clock, Mode: mode, MaxTTL: 24, GapLimit: 4}
		var active time.Duration
		for i := 0; i < 266; i++ {
			tr := eng.Trace(att.Host.Addr, st.Targets[i%len(st.Targets)])
			active += tr.ActiveTime
		}
		name := "sequential (stock scamper)"
		if mode == traceroute.Parallel {
			name = "parallel (ShipTraceroute)"
		}
		rows = append(rows, Fig14Row{
			Mode:        name,
			Active:      active,
			EnergymAh:   model.RoundEnergy(active),
			BatteryDays: model.BatteryLifeDays(active, true),
		})
	}
	return rows
}

// Figure18 returns the latency-map hexes for a carrier.
func (st *MobileStudy) Figure18(carrier string) []geo.HexValue {
	return ship.LatencyMap(st.Rounds(carrier), 1.5)
}

// PGWTable compares inferred per-region PGW counts against ground truth
// (Tables 7 and 8). Only regions the campaign visited appear.
type PGWRow struct {
	Region   string
	Inferred int
	Truth    int
}

// PGWTable builds the Table 7/8 comparison for a carrier.
func (st *MobileStudy) PGWTable(carrier string) []PGWRow {
	a := st.Analysis(carrier)
	truth := st.Carriers[carrier]
	var rows []PGWRow
	for _, reg := range truth.Regions {
		got, visited := a.PGWCounts[reg.Spec.UserBits]
		if !visited {
			continue
		}
		rows = append(rows, PGWRow{Region: reg.Spec.Name, Inferred: got, Truth: len(reg.PGWs)})
	}
	return rows
}
