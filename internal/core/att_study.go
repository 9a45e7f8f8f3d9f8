package core

import (
	"net/netip"
	"time"

	"repro/internal/attmap"
	"repro/internal/metrics"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// ATTStudy is the §6 case study: the AT&T-like telco mapped from
// bootstrap probes, in-region Atlas/Ark probes, and McTraceroute WiFi
// hotspots, with the San Diego region at full detail.
type ATTStudy struct {
	Scenario *topogen.Scenario
	Telco    *topogen.Telco
	Hotspots []topogen.WiFiHotspot
	// ArkAtlasVPs are the conventional in-region probes; HotspotVPs are
	// the restaurant WiFi VPs; BootstrapVPs sit in nearby regions.
	ArkAtlasVPs  []netip.Addr
	HotspotVPs   []netip.Addr
	BootstrapVPs []netip.Addr

	cfg    Config
	err    error // cfg's validate verdict: non-nil refuses the campaign
	seed   int64
	result *attmap.Result
}

// DetailRegion is the region mapped at full fidelity.
const DetailRegion = "sd2ca"

// NewATTStudy builds the AT&T scenario and its vantage points. Options
// configure parallelism and resilience; with no options the study
// behaves exactly as it always has. Invalid options do not stop the
// build: Run and Result report them instead.
func NewATTStudy(seed int64, opts ...Option) *ATTStudy {
	cfg, err := buildConfig(opts)
	s := topogen.NewScenario(seed)
	tel := s.BuildTelco(topogen.ATTProfile())
	st := &ATTStudy{Scenario: s, Telco: tel, cfg: cfg, err: err, seed: seed}
	st.cfg.installFaults(s.Net)
	for i, tag := range []string{"la2ca", "bkfdca", "frsnca", "sffca", "scrmca"} {
		st.BootstrapVPs = append(st.BootstrapVPs, s.AddTelcoVP(tel, tag, i).Addr)
	}
	for i := 0; i < 10; i++ {
		st.ArkAtlasVPs = append(st.ArkAtlasVPs, s.AddTelcoVP(tel, DetailRegion, i*4).Addr)
	}
	st.Hotspots = s.BuildWiFiHotspots(tel, DetailRegion, 58, 0.4)
	for _, h := range st.Hotspots {
		if h.Host != nil {
			st.HotspotVPs = append(st.HotspotVPs, h.Host.Addr)
		}
	}
	return st
}

func (st *ATTStudy) campaign() *attmap.Campaign {
	return &attmap.Campaign{
		Net:          st.Scenario.Net,
		DNS:          st.Scenario.DNS,
		Clock:        vclock.New(st.Scenario.Epoch()),
		ISP:          "att",
		BootstrapVPs: st.BootstrapVPs,
		RegionVPs: map[string][]netip.Addr{
			DetailRegion: append(append([]netip.Addr{}, st.ArkAtlasVPs...), st.HotspotVPs...),
		},
		Parallelism: st.cfg.Parallelism,
		Resilience:  st.cfg.Resilience,
	}
}

// Result runs (once) and returns the inference. It panics with the
// study's ErrInvalidConfig error when its options were rejected.
func (st *ATTStudy) Result() *attmap.Result {
	if st.err != nil {
		panic(st.err)
	}
	if st.result == nil {
		st.result = st.campaign().Run()
	}
	return st.result
}

// Fig13Summary is the router- and CO-level shape of the detail region.
type Fig13Summary struct {
	BackboneRouters int
	AggRouters      int
	EdgeRouters     int
	EdgeCOs         int
	TwoRouterEdges  int
	BackboneCOs     int
	FullMesh        bool
	DualHomedEdges  int
}

// Figure13 summarizes the San Diego inference.
func (st *ATTStudy) Figure13() Fig13Summary {
	rm := st.Result().Regions[DetailRegion]
	if rm == nil {
		return Fig13Summary{}
	}
	out := Fig13Summary{
		BackboneRouters: len(rm.Routers(attmap.RoleBackbone)),
		AggRouters:      len(rm.Routers(attmap.RoleAgg)),
		EdgeRouters:     len(rm.Routers(attmap.RoleEdge)),
		EdgeCOs:         len(rm.EdgeCOs),
		BackboneCOs:     rm.InferredBackboneCOs(),
		FullMesh:        rm.BackboneFullMesh(),
	}
	for _, cl := range rm.EdgeCOs {
		if len(cl) == 2 {
			out.TwoRouterEdges++
		}
		if len(rm.AggsOfEdgeCO(cl)) == 2 {
			out.DualHomedEdges++
		}
	}
	return out
}

// Table6 returns the discovered edge and agg router /24s.
func (st *ATTStudy) Table6() (edge, agg []netip.Prefix) {
	rm := st.Result().Regions[DetailRegion]
	if rm == nil {
		return nil, nil
	}
	return rm.EdgePrefixes, rm.AggPrefixes
}

// McComparison reports distinct IP paths observed by the Atlas/Ark VPs
// versus the McTraceroute hotspot VPs over the region's router prefixes
// (§6.1: the conventional VPs found about half the paths).
func (st *ATTStudy) McComparison() (arkPaths, mcPaths int) {
	c := st.campaign()
	var probeSet []netip.Addr
	for _, pfx := range st.Telco.EdgePrefixes[DetailRegion] {
		a := pfx.Addr()
		for i := 0; i < 24; i++ {
			a = a.Next()
			probeSet = append(probeSet, a)
		}
	}
	return c.PathCoverage(st.ArkAtlasVPs, probeSet), c.PathCoverage(st.HotspotVPs, probeSet)
}

// Table2 measures the EdgeCO-device latency histogram from a Los
// Angeles cloud VM via M-Lab-style customer targets.
func (st *ATTStudy) Table2(pings int) *metrics.Histogram {
	lat := st.EdgeLatency(pings)
	var ms []float64
	for _, d := range lat.PerDevice {
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return metrics.NewHistogram([]float64{4, 5, 6, 7, 9, 10}, ms)
}

// EdgeLatency runs the §6.3 measurement and returns per-device minimum
// RTTs.
func (st *ATTStudy) EdgeLatency(pings int) attmap.EdgeLatency {
	var vm netip.Addr
	for _, c := range st.Scenario.Clouds {
		if c.Provider == "gcloud" && c.Region == "us-west2" {
			vm = c.Host.Addr
		}
	}
	sample := st.Telco.MLabSample(DetailRegion, 0.5)
	return st.campaign().MeasureEdgeLatency(vm, sample, DetailRegion, pings)
}

// LatencyOutliers reports the count of devices above twice the mean
// (the Calexico / El Centro effect) and the mean in milliseconds.
func (st *ATTStudy) LatencyOutliers(pings int) (outliers int, meanMs float64) {
	lat := st.EdgeLatency(pings)
	if len(lat.PerDevice) == 0 {
		return 0, 0
	}
	var sum float64
	var ms []float64
	for _, d := range lat.PerDevice {
		v := float64(d) / float64(time.Millisecond)
		ms = append(ms, v)
		sum += v
	}
	meanMs = sum / float64(len(ms))
	for _, v := range ms {
		if v > 2*meanMs {
			outliers++
		}
	}
	return outliers, meanMs
}
