package topogen

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"repro/internal/clli"
	"repro/internal/geo"
	"repro/internal/ipalloc"
	"repro/internal/netsim"
)

// MobileArch is a carrier's regional aggregation architecture (Fig. 17).
type MobileArch uint8

const (
	// ArchSingleEdge: one EdgeCO (mobile datacenter) per region with
	// several PGWs, aggregating to the carrier's own backbone (AT&T).
	ArchSingleEdge MobileArch = iota
	// ArchMultiEdge: several EdgeCOs share one BackboneCO, covering
	// non-overlapping sub-areas (Verizon).
	ArchMultiEdge
	// ArchMultiBackbone: several PGW sites per region, each homed to a
	// different wholesale backbone provider (T-Mobile).
	ArchMultiBackbone
)

func (a MobileArch) String() string {
	switch a {
	case ArchSingleEdge:
		return "single-edge"
	case ArchMultiEdge:
		return "multi-edge"
	case ArchMultiBackbone:
		return "multi-backbone"
	}
	return "unknown"
}

// MobileRegionSpec describes one mobile region in a profile.
type MobileRegionSpec struct {
	// Name labels the region (the paper's Table 7/8 site codes).
	Name string
	// City anchors the region's EdgeCO (mobile datacenter).
	City string
	// PGWs is the packet-gateway count at this site.
	PGWs int
	// UserBits is the region's value in the user-address region field.
	UserBits uint64
	// RouterBits is the region's value in the infrastructure-address
	// region field.
	RouterBits uint64
	// Backbone optionally groups several regions under one backbone
	// region (Verizon); empty means the region has its own exit.
	Backbone string
	// Provider selects the wholesale backbone provider for
	// multi-backbone carriers.
	Provider string
}

// MobileProfile parameterizes a carrier.
type MobileProfile struct {
	Name string
	Arch MobileArch
	// Address plan (Fig. 16): field positions inside user and router
	// addresses.
	UserBase    netip.Addr
	RouterBase  netip.Addr
	UserRegion  ipalloc.Field // region field in user addresses
	UserPGW     ipalloc.Field // PGW field in user addresses
	RouterField ipalloc.Field // region field in router addresses
	RouterPGW   ipalloc.Field // PGW field in router addresses
	// SpeedtestRDNS emits per-EdgeCO speedtest hosts with rDNS names
	// (Verizon's *.ost.myvzw.com validation hook).
	SpeedtestRDNS bool
	// GlobalPGWIDs numbers packet gateways across the whole carrier
	// instead of per region (T-Mobile's /40s are carrier-global).
	GlobalPGWIDs bool
	// AttachNearestK lets a phone register with any of its K nearest
	// sites (T-Mobile's distributed attachment, §7.2.3).
	AttachNearestK int
	// SwitchProb occasionally re-attaches a stationary phone to the
	// neighboring EdgeCO of the same backbone region (observed for
	// Verizon, §7.2.2).
	SwitchProb float64
	// MidHops inserts routers between each PGW and the EdgeCO core:
	// silent ones reproduce the "*" hops of Fig. 16a/b, addressed ones
	// reproduce T-Mobile's responding ULA hops (Fig. 16c).
	MidHops []MidHopSpec
	// BackboneRDNS names the carrier's backbone hops (alter.net-style).
	BackboneRDNS string
	Regions      []MobileRegionSpec
}

// MidHopSpec describes one packet-core hop between PGW and EdgeCO core.
type MidHopSpec struct {
	// Base is the address space of the hop's interfaces (e.g. a ULA
	// prefix); the zero Addr reuses the carrier's RouterBase.
	Base netip.Addr
	// Silent hops never answer (Fig. 16's "*" rows).
	Silent bool
}

// PGW is one packet gateway in the ground truth.
type PGW struct {
	// ID is the region-local index; UserValue is the value stamped into
	// the user-address PGW field (region-local or carrier-global per
	// the profile).
	ID        int
	UserValue uint64
	Region    *MobileRegion
	Router    *netsim.Router
	// ranRouter is the phone attachment point below the PGW.
	ranRouter *netsim.Router
}

// MobileRegion is ground truth for one mobile region.
type MobileRegion struct {
	Spec     MobileRegionSpec
	City     geo.City
	PGWs     []*PGW
	Backbone string
	Provider string
}

// MobileCarrier is a generated carrier plus its ground truth.
type MobileCarrier struct {
	Profile MobileProfile
	Regions []*MobileRegion

	scenario *Scenario
	hostSeq  int
}

// BuildMobileCarrier generates a carrier: per region an EdgeCO with its
// PGWs and core routers, wired to a backbone exit (own backbone CO,
// shared backbone-region CO, or a wholesale provider's router), with
// IPv6 addresses laid out per the profile's Fig. 16 plan.
func (s *Scenario) BuildMobileCarrier(p MobileProfile) *MobileCarrier {
	c := &MobileCarrier{Profile: p, scenario: s}
	// Backbone-region exits are shared across regions (Verizon).
	exits := map[string]*netsim.Router{}
	exitFor := func(name string, city geo.City) *netsim.Router {
		if r, ok := exits[name]; ok {
			return r
		}
		r := s.Net.AddRouter(&netsim.Router{
			Name:         p.Name + "/backbone/" + name,
			ISP:          p.Name,
			CO:           p.Name + "/backbone/" + name,
			Loc:          city.Point,
			ResponseProb: 0.97,
			IPID:         netsim.IPIDShared,
		})
		r.IPIDVelocity = 80
		for _, up := range s.AttachToTransitN(r, 2) {
			if p.BackboneRDNS != "" {
				name := fmt.Sprintf("0.ge-1-0-0.%s.%s", strings.ToLower(clli.CityCode(city)), p.BackboneRDNS)
				s.DNS.SetLive(up.Addr, name)
				s.DNS.SetSnapshot(up.Addr, name)
			}
		}
		exits[name] = r
		return r
	}
	// Wholesale providers (T-Mobile): one border router per (provider,
	// metro).
	providers := map[string]*netsim.Router{}
	providerFor := func(prov string, city geo.City) *netsim.Router {
		key := prov + "/" + city.Name
		if r, ok := providers[key]; ok {
			return r
		}
		r := s.Net.AddRouter(&netsim.Router{
			Name:         prov + "/" + city.Name,
			ISP:          prov,
			CO:           prov + "/" + clli.CityCode(city),
			Loc:          city.Point,
			ResponseProb: 0.97,
			IPID:         netsim.IPIDShared,
		})
		r.IPIDVelocity = 120
		s.AttachToTransitN(r, 1)
		name := fmt.Sprintf("ae1.cr1.%s.%s.example.net", strings.ToLower(clli.CityCode(city)), prov)
		for _, ifc := range r.Interfaces() {
			s.DNS.SetLive(ifc.Addr, name)
			s.DNS.SetSnapshot(ifc.Addr, name)
		}
		providers[key] = r
		return r
	}

	pgwSeq := 0
	v6 := func(base netip.Addr, fields ...ipalloc.Field) netip.Addr {
		return ipalloc.V6WithFields(base, fields...)
	}
	ifaceSeq := uint64(1)
	addIface := func(r *netsim.Router, base netip.Addr, fields ...ipalloc.Field) *netsim.Iface {
		ifaceSeq++
		fields = append(fields, ipalloc.Field{Start: 96, Len: 32, Value: ifaceSeq})
		ifc, err := s.Net.AddIface(r, v6(base, fields...))
		if err != nil {
			panic(err)
		}
		return ifc
	}

	for i := range p.Regions {
		spec := p.Regions[i]
		city := geo.MustByName(spec.City)
		reg := &MobileRegion{Spec: spec, City: city, Backbone: spec.Backbone, Provider: spec.Provider}
		c.Regions = append(c.Regions, reg)

		// The region's exit router.
		var exit *netsim.Router
		switch p.Arch {
		case ArchMultiBackbone:
			exit = providerFor(spec.Provider, city)
		case ArchMultiEdge:
			bbCity := city
			if spec.Backbone != "" {
				// Backbone CO sits at the first region of the group.
				for _, other := range p.Regions {
					if other.Name == spec.Backbone || other.Backbone == spec.Backbone {
						bbCity = geo.MustByName(other.City)
						break
					}
				}
			}
			exit = exitFor(spec.Backbone, bbCity)
		default:
			exit = exitFor(spec.Name, city)
		}

		// Core router inside the EdgeCO: carries the region bits in its
		// infrastructure address; silent middle hops model the packet
		// core's opacity.
		core := s.Net.AddRouter(&netsim.Router{
			Name:         fmt.Sprintf("%s/%s/core", p.Name, spec.Name),
			ISP:          p.Name,
			CO:           fmt.Sprintf("%s/%s", p.Name, spec.Name),
			Loc:          city.Point,
			ResponseProb: 0.96,
			DstPolicy:    netsim.DstClosed,
			IPID:         netsim.IPIDShared,
		})
		core.IPIDVelocity = 60
		coreUp := addIface(core, p.RouterBase,
			ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits})
		exitDown := addIface(exit, p.RouterBase,
			ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits})
		if _, err := s.Net.Connect(coreUp, exitDown, geo.PropagationDelay(city.Point, exit.Loc)); err != nil {
			panic(err)
		}
		// The backbone-side inbound interface is where the carrier's
		// backbone rDNS shows up in traceroutes (Verizon's alter.net),
		// and where wholesale providers name their customer ports
		// (T-Mobile's upstreams).
		switch {
		case p.Arch == ArchMultiBackbone:
			n := fmt.Sprintf("ae2.cr1.%s.%s.example.net", strings.ToLower(clli.CityCode(city)), spec.Provider)
			s.DNS.SetLive(exitDown.Addr, n)
			s.DNS.SetSnapshot(exitDown.Addr, n)
		case p.BackboneRDNS != "":
			n := fmt.Sprintf("0.xe-1-0-0.%s.%s", strings.ToLower(clli.CityCode(city)), p.BackboneRDNS)
			s.DNS.SetLive(exitDown.Addr, n)
			s.DNS.SetSnapshot(exitDown.Addr, n)
		}

		for k := 0; k < spec.PGWs; k++ {
			pgwSeq++
			pgw := &PGW{ID: k, UserValue: uint64(k), Region: reg}
			if p.GlobalPGWIDs {
				// Carrier-global identifiers are not assigned in
				// geographic order; scramble so neighboring sites do
				// not share high bits.
				pgw.UserValue = uint64((pgwSeq*37 + 11) % 251)
			}
			r := s.Net.AddRouter(&netsim.Router{
				Name:         fmt.Sprintf("%s/%s/pgw%d", p.Name, spec.Name, k),
				ISP:          p.Name,
				CO:           fmt.Sprintf("%s/%s", p.Name, spec.Name),
				Loc:          city.Point,
				ResponseProb: 0.98,
				DstPolicy:    netsim.DstClosed,
				ReplyAddr:    netsim.ReplyCanonical,
				IPID:         netsim.IPIDShared,
			})
			r.IPIDVelocity = 150
			// The PGW replies from an address inside the user space
			// carrying the region and PGW bits (Fig. 16 hop 1).
			userFace := addIface(r, p.UserBase,
				ipalloc.Field{Start: p.UserRegion.Start, Len: p.UserRegion.Len, Value: spec.UserBits},
				ipalloc.Field{Start: p.UserPGW.Start, Len: p.UserPGW.Len, Value: pgw.UserValue})
			r.Canonical = userFace.Addr
			pgw.Router = r
			reg.PGWs = append(reg.PGWs, pgw)

			// RAN gateway below the PGW: the phone's attachment point,
			// never visible in traceroute (so the PGW is hop 1).
			ran := s.Net.AddRouter(&netsim.Router{
				Name:         fmt.Sprintf("%s/%s/ran%d", p.Name, spec.Name, k),
				ISP:          p.Name,
				CO:           fmt.Sprintf("%s/%s", p.Name, spec.Name),
				Loc:          city.Point,
				ResponseProb: 0,
				DstPolicy:    netsim.DstClosed,
				IPID:         netsim.IPIDRandom,
			})
			ranUp := addIface(ran, p.RouterBase, ipalloc.Field{Start: 56, Len: 8, Value: 0xfe})
			pgwDown := addIface(r, p.RouterBase, ipalloc.Field{Start: 56, Len: 8, Value: 0xfd})
			if _, err := s.Net.Connect(ranUp, pgwDown, 200*time.Microsecond); err != nil {
				panic(err)
			}
			pgw.ranRouter = ran

			// Packet-core mid hops between PGW and the EdgeCO core.
			prev := r
			for h, mh := range p.MidHops {
				base := mh.Base
				if !base.IsValid() {
					base = p.RouterBase
				}
				resp := 0.96
				if mh.Silent {
					resp = -1 // forced silent (ResponseProb 0 would be defaulted)
				}
				mid := s.Net.AddRouter(&netsim.Router{
					Name:         fmt.Sprintf("%s/%s/pgw%d-core%d", p.Name, spec.Name, k, h),
					ISP:          p.Name,
					CO:           fmt.Sprintf("%s/%s", p.Name, spec.Name),
					Loc:          city.Point,
					ResponseProb: resp,
					DstPolicy:    netsim.DstClosed,
					IPID:         netsim.IPIDShared,
				})
				if mh.Silent {
					mid.ResponseProb = 0.000001
				}
				a1 := addIface(prev, base,
					ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits},
					ipalloc.Field{Start: p.RouterPGW.Start, Len: p.RouterPGW.Len, Value: pgw.UserValue})
				a2 := addIface(mid, base,
					ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits},
					ipalloc.Field{Start: p.RouterPGW.Start, Len: p.RouterPGW.Len, Value: pgw.UserValue})
				if _, err := s.Net.Connect(a1, a2, 80*time.Microsecond); err != nil {
					panic(err)
				}
				prev = mid
			}
			pgwUp2 := addIface(prev, p.RouterBase,
				ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits},
				ipalloc.Field{Start: p.RouterPGW.Start, Len: p.RouterPGW.Len, Value: pgw.UserValue},
				ipalloc.Field{Start: 56, Len: 8, Value: 0xcc})
			coreDown := addIface(core, p.RouterBase,
				ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits},
				ipalloc.Field{Start: p.RouterPGW.Start, Len: p.RouterPGW.Len, Value: pgw.UserValue},
				ipalloc.Field{Start: 56, Len: 8, Value: 0xcd})
			if _, err := s.Net.Connect(pgwUp2, coreDown, 100*time.Microsecond); err != nil {
				panic(err)
			}
		}

		// Speedtest host with EdgeCO rDNS (Verizon validation, §7.2.2).
		if p.SpeedtestRDNS {
			stAddr := v6(p.RouterBase,
				ipalloc.Field{Start: p.RouterField.Start, Len: p.RouterField.Len, Value: spec.RouterBits},
				ipalloc.Field{Start: 112, Len: 16, Value: 0x5157})
			st := &netsim.Host{
				Addr:           stAddr,
				Router:         core,
				ISP:            p.Name,
				Loc:            city.Point,
				AccessDelay:    100 * time.Microsecond,
				RespondsToPing: true,
			}
			if err := s.Net.AddHost(st); err != nil {
				panic(err)
			}
			code := strings.ToLower(city.State + clli.PlaceCode(city.Name)[:2])
			name := code + ".ost.myvzw.com"
			s.DNS.SetLive(stAddr, name)
			s.DNS.SetSnapshot(stAddr, name)
		}
	}
	return c
}

// rankRegions returns the carrier's regions by distance from p, nearest
// first; regions at equal distance keep their order in c.Regions. The
// first is the site a phone at p registers with. Each region's distance
// is computed once, not once per comparison.
func (c *MobileCarrier) rankRegions(p geo.Point) []*MobileRegion {
	type ranked struct {
		reg *MobileRegion
		km  float64
	}
	rs := make([]ranked, len(c.Regions))
	for i, r := range c.Regions {
		rs[i] = ranked{r, geo.DistanceKm(p, r.City.Point)}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(a.km, b.km) })
	regs := make([]*MobileRegion, len(rs))
	for i, r := range rs {
		regs[i] = r.reg
	}
	return regs
}

// Attachment is one registration of a phone with the packet core.
type Attachment struct {
	Host *netsim.Host
	// UserAddr is the phone's address; its bits encode the region and
	// packet gateway per the carrier's plan.
	UserAddr netip.Addr
	PGW      *PGW
}

// Modem models a phone's registration behaviour: each airplane-mode
// cycle re-registers, possibly landing on a different packet gateway of
// the serving region (§7.1.1 required forcing this to see all PGWs).
type Modem struct {
	Carrier *MobileCarrier
	cycles  int
}

// NewModem returns a modem for this carrier.
func (c *MobileCarrier) NewModem() *Modem {
	return &Modem{Carrier: c}
}

// Attach registers at the given location and returns the attachment.
// The radio access network adds tens of milliseconds of access latency.
func (m *Modem) Attach(at geo.Point) Attachment {
	c := m.Carrier
	s := c.scenario
	p := c.Profile
	regs := c.rankRegions(at)
	reg := regs[0]
	if k := p.AttachNearestK; k > 1 {
		reg = regs[m.cycles%min(k, len(regs))]
	} else if p.SwitchProb > 0 && s.rng.Float64() < p.SwitchProb {
		if len(regs) >= 2 && regs[1].Backbone == regs[0].Backbone {
			reg = regs[1]
		}
	}
	m.cycles++
	c.hostSeq++
	pgw := reg.PGWs[(m.cycles+int(s.rng.Int31n(2)))%len(reg.PGWs)]
	addr := ipalloc.V6WithFields(p.UserBase,
		ipalloc.Field{Start: p.UserRegion.Start, Len: p.UserRegion.Len, Value: reg.Spec.UserBits},
		ipalloc.Field{Start: p.UserPGW.Start, Len: p.UserPGW.Len, Value: pgw.UserValue},
		ipalloc.Field{Start: 64, Len: 32, Value: uint64(c.hostSeq)},
		ipalloc.Field{Start: 96, Len: 32, Value: uint64(s.rng.Int63()) & 0xffffffff})
	// Air latency to the serving site: local RAN plus backhaul distance.
	access := 15*time.Millisecond + geo.PropagationDelay(at, reg.City.Point)
	h := &netsim.Host{
		Addr:           addr,
		Router:         pgw.ranRouter,
		ISP:            p.Name,
		Loc:            at,
		AccessDelay:    access,
		RespondsToPing: false,
	}
	if err := s.Net.AddHost(h); err != nil {
		panic(err)
	}
	return Attachment{Host: h, UserAddr: addr, PGW: pgw}
}
