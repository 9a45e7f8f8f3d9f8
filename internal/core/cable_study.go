package core

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/cloudlat"
	"repro/internal/comap"
	"repro/internal/metrics"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// sortedRegions returns the region names in sorted order so figures
// that walk the inference emit rows independently of map iteration.
func sortedRegions(regions map[string]*comap.RegionGraph) []string {
	names := make([]string, 0, len(regions))
	for name := range regions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sortedCOKeys returns a region's CO keys in sorted order.
func sortedCOKeys(g *comap.RegionGraph) []string {
	keys := make([]string, 0, len(g.COs))
	for key := range g.COs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// CableStudy is the §5 case study: Comcast- and Charter-like operators
// mapped from 50+ vantage points.
type CableStudy struct {
	Scenario *topogen.Scenario
	Comcast  *topogen.ISP
	Charter  *topogen.ISP
	VPs      []netip.Addr

	cfg     Config
	err     error // cfg's validate verdict: non-nil refuses every campaign
	seed    int64
	results map[string]*comap.Result
}

// NewCableStudy builds the scenario (both operators, clouds, VPs) for a
// seed. The measurement campaigns run lazily per operator. Options
// configure parallelism, probe budget, and windowing; with no options
// the study behaves exactly as it always has. Invalid options do not
// stop the build: Run, Result and ResultContext report them instead.
func NewCableStudy(seed int64, opts ...Option) *CableStudy {
	cfg, err := buildConfig(opts)
	s := topogen.NewScenario(seed)
	comcast := s.BuildCable(topogen.ComcastProfile().Scaled(cfg.Scale))
	charter := s.BuildCable(topogen.CharterProfile().Scaled(cfg.Scale))
	vps := s.StandardVPs(comcast, charter)
	cfg.installFaults(s.Net)
	return &CableStudy{
		Scenario: s,
		Comcast:  comcast,
		Charter:  charter,
		VPs:      vps,
		cfg:      cfg,
		err:      err,
		seed:     seed,
		results:  map[string]*comap.Result{},
	}
}

func (st *CableStudy) truth(isp string) *topogen.ISP {
	if isp == "comcast" {
		return st.Comcast
	}
	return st.Charter
}

// Result runs (once) and returns the full pipeline output for an
// operator ("comcast" or "charter"). It panics with ResultContext's
// error, which wraps ErrInvalidConfig when the options were rejected.
func (st *CableStudy) Result(isp string) *comap.Result {
	r, err := st.ResultContext(context.Background(), isp)
	if err != nil {
		panic(fmt.Errorf("core: cable study aborted: %w", err))
	}
	return r
}

// ResultContext is Result with cooperative cancellation threaded into
// the campaign's flush loop: a cancelled durable campaign checkpoints
// cleanly and resumes on the next run over the same SpillDir.
//
// Both operators probe one shared simulated network, so the later
// campaign's IP-ID reads depend on the earlier campaign's probe
// counters. A durable study resumed in a fresh process must therefore
// request results in the same operator order as the original run (as
// Study.Run and the cmd drivers do): completed campaigns replay from
// their logs, warming the shared counters the next campaign reads.
func (st *CableStudy) ResultContext(ctx context.Context, isp string) (*comap.Result, error) {
	if st.err != nil {
		return nil, st.err
	}
	if r, ok := st.results[isp]; ok {
		return r, nil
	}
	c := &comap.Campaign{
		Net:         st.Scenario.Net,
		DNS:         st.Scenario.DNS,
		Clock:       vclock.New(st.Scenario.Epoch()),
		ISP:         isp,
		Seed:        st.seed,
		VPs:         st.VPs,
		Announced:   st.truth(isp).Announced,
		Parallelism: st.cfg.Parallelism,
		MaxTraces:   st.cfg.ProbeBudget,
		Resilience:  st.cfg.Resilience,
		TraceWindow: st.cfg.TraceWindow,
		SpillDir:    st.cfg.SpillDir,
		Durable:     st.cfg.Durable,
		SpillFS:     st.cfg.SpillFS,
	}
	r, err := comap.RunContext(ctx, c)
	if err != nil {
		return nil, err
	}
	st.results[isp] = r
	return r, nil
}

// Close releases every cached result's spilled trace archive. A
// windowed study leaves one spill directory per operator campaign, and
// Table1 and the figures run both operators — so callers release the
// study, not the single result they asked for.
func (st *CableStudy) Close() error {
	var first error
	for _, r := range st.results {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Table1 classifies every inferred region (paper Table 1): counts per
// aggregation archetype per operator.
func (st *CableStudy) Table1() map[string]map[comap.AggType]int {
	out := map[string]map[comap.AggType]int{}
	for _, isp := range []string{"comcast", "charter"} {
		counts := map[comap.AggType]int{}
		for _, g := range st.Result(isp).Inference.Regions {
			counts[g.Classify()]++
		}
		out[isp] = counts
	}
	return out
}

// Figure7 returns the per-region CO and AggCO counts whose CDFs the
// paper plots (AggCO defined as any CO with outgoing edges, §5.3).
func (st *CableStudy) Figure7() (cos, aggs map[string][]float64) {
	cos = map[string][]float64{}
	aggs = map[string][]float64{}
	for _, isp := range []string{"comcast", "charter"} {
		regions := st.Result(isp).Inference.Regions
		for _, name := range sortedRegions(regions) {
			g := regions[name]
			cos[isp] = append(cos[isp], float64(len(g.COs)))
			n := 0
			for key := range g.COs {
				if g.OutDegree(key) > 0 {
					n++
				}
			}
			aggs[isp] = append(aggs[isp], float64(n))
		}
	}
	return cos, aggs
}

// Table3 returns the Phase 1 mapping-refinement accounting.
func (st *CableStudy) Table3(isp string) comap.MappingStats {
	return st.Result(isp).Mapping.Stats
}

// Table4 returns the Phase 2 adjacency-pruning accounting.
func (st *CableStudy) Table4(isp string) comap.PruneStats {
	return st.Result(isp).Inference.Prune
}

// EntrySummary reports, per operator: total distinct backbone entry
// points across regions, regions with fewer than two backbone entries,
// and inter-region entries (§5.2.5).
type EntrySummary struct {
	BackboneEntryPairs int
	RegionsUnderTwo    int
	InterRegionEntries int
	// InterRegionPairs counts distinct (feeder region, fed region)
	// relationships, the unit §5.2.5 reports (e.g. Central California
	// fed by San Francisco).
	InterRegionPairs    int
	RegionsWithAnyEntry int
}

// Entries summarizes entry-point inference for an operator.
func (st *CableStudy) Entries(isp string) EntrySummary {
	var out EntrySummary
	regionPairs := map[string]bool{}
	for name, g := range st.Result(isp).Inference.Regions {
		bb := map[string]bool{}
		for _, e := range g.Entries {
			if strings.HasPrefix(e.From, "bb:") {
				bb[e.From] = true
			} else {
				out.InterRegionEntries++
				if i := strings.IndexByte(e.From, '/'); i > 0 {
					regionPairs[e.From[:i]+">"+name] = true
				}
			}
		}
		out.BackboneEntryPairs += len(bb)
		if len(bb) < 2 {
			out.RegionsUnderTwo++
		}
		if len(g.Entries) > 0 {
			out.RegionsWithAnyEntry++
		}
	}
	out.InterRegionPairs = len(regionPairs)
	return out
}

// Redundancy reports the §B.4 statistics: the fraction of EdgeCOs with
// a single upstream CO, and among those, the fraction hanging off
// another EdgeCO; plus the EdgeCO:AggCO ratio of §5.5.
type Redundancy struct {
	SingleUpstreamFrac float64
	SingleViaEdgeFrac  float64
	EdgeCOs, AggCOs    int
	EdgePerAggRatio    float64
}

// RedundancyStats computes B.4 for one operator, optionally excluding a
// region (the paper excludes Charter's southeast).
func (st *CableStudy) RedundancyStats(isp string, exclude ...string) Redundancy {
	skip := map[string]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	var r Redundancy
	single, singleViaEdge, connected := 0, 0, 0
	for name, g := range st.Result(isp).Inference.Regions {
		agg := map[string]bool{}
		for key := range g.COs {
			if g.OutDegree(key) > 0 {
				agg[key] = true
				r.AggCOs++
			} else {
				r.EdgeCOs++
			}
		}
		if skip[name] {
			continue
		}
		for key, node := range g.COs {
			if node.IsAgg {
				continue
			}
			ins := 0
			viaEdge := false
			for e := range g.Edges {
				if e[1] == key {
					ins++
					if !g.COs[e[0]].IsAgg {
						viaEdge = true
					}
				}
			}
			if ins == 0 {
				continue
			}
			connected++
			if ins == 1 {
				single++
				if viaEdge {
					singleViaEdge++
				}
			}
		}
	}
	if connected > 0 {
		r.SingleUpstreamFrac = float64(single) / float64(connected)
	}
	if single > 0 {
		r.SingleViaEdgeFrac = float64(singleViaEdge) / float64(single)
	}
	if r.AggCOs > 0 {
		r.EdgePerAggRatio = float64(r.EdgeCOs) / float64(r.AggCOs)
	}
	return r
}

// DirectTargetingGain returns how many times more intra-region CO
// adjacencies the rDNS-targeted traceroutes revealed over the /24 sweep
// (the paper's 5.3x / 2.6x claim).
func (st *CableStudy) DirectTargetingGain(isp string) float64 {
	stages := st.Result(isp).StageAdjacencies()
	sweep := stages["sweep"]
	if sweep == 0 {
		return 0
	}
	return float64(stages["direct"]+stages["mpls"]) / float64(sweep)
}

// cloudStudy builds the §5.5 latency study over the scenario's VMs.
func (st *CableStudy) cloudStudy(pings int) *cloudlat.Study {
	var vms []cloudlat.VM
	for _, c := range st.Scenario.Clouds {
		vms = append(vms, cloudlat.VM{Provider: c.Provider, Region: c.Region, Addr: c.Host.Addr})
	}
	return &cloudlat.Study{
		Net:         st.Scenario.Net,
		Clock:       vclock.New(st.Scenario.Epoch()),
		VMs:         vms,
		Pings:       pings,
		Parallelism: st.cfg.Parallelism,
	}
}

// Figure9 measures the Northeast-states latency comparison from every
// cloud provider, using the inferred Comcast graphs to locate EdgeCOs
// by state (the boston region plus Connecticut).
func (st *CableStudy) Figure9(pings int) []cloudlat.Fig9Row {
	byState := map[string][]netip.Addr{}
	res := st.Result("comcast")
	for _, regionName := range []string{"boston", "hartford"} {
		g := res.Inference.Regions[regionName]
		if g == nil {
			continue
		}
		for _, key := range sortedCOKeys(g) {
			node := g.COs[key]
			if node.IsAgg || len(node.Addrs) == 0 {
				continue
			}
			// Comcast tags end in the state code: "troutdale.or".
			i := strings.LastIndexByte(node.Tag, '.')
			if i < 0 {
				continue
			}
			state := strings.ToUpper(node.Tag[i+1:])
			byState[state] = append(byState[state], node.Addrs[0])
		}
	}
	return st.cloudStudy(pings).Figure9([]string{"aws", "azure", "gcloud"}, byState)
}

// Figure10 measures the cloud-to-EdgeCO and AggCO-to-EdgeCO RTT CDFs
// over both operators' inferred graphs. maxPairs bounds runtime (0 =
// all).
func (st *CableStudy) Figure10(pings, maxPairs int) cloudlat.Fig10 {
	var pairs []cloudlat.EdgePair
	for _, isp := range []string{"comcast", "charter"} {
		res := st.Result(isp)
		regions := res.Inference.Regions
		for _, name := range sortedRegions(regions) {
			g := regions[name]
			for _, key := range sortedCOKeys(g) {
				node := g.COs[key]
				if node.IsAgg || len(node.Addrs) == 0 {
					continue
				}
				// Pick the smallest-keyed upstream AggCO with a known
				// address, so the probed pair set does not depend on map
				// iteration order.
				upstream := ""
				for e := range g.Edges {
					if e[1] != node.Key {
						continue
					}
					up := g.COs[e[0]]
					if up == nil || !up.IsAgg || len(up.Addrs) == 0 {
						continue
					}
					if upstream == "" || e[0] < upstream {
						upstream = e[0]
					}
				}
				if upstream != "" {
					pairs = append(pairs, cloudlat.EdgePair{Edge: node.Addrs[0], Agg: g.COs[upstream].Addrs[0]})
				}
			}
		}
	}
	if maxPairs > 0 && len(pairs) > maxPairs {
		// Deterministic thinning.
		step := len(pairs) / maxPairs
		var out []cloudlat.EdgePair
		for i := 0; i < len(pairs); i += step {
			out = append(out, pairs[i])
		}
		pairs = out
	}
	return st.cloudStudy(pings).Figure10(pairs)
}

// Score compares an operator's inference against ground truth.
func (st *CableStudy) Score(isp string) metrics.ISPScore {
	return metrics.ScoreISP(st.Result(isp).Inference, st.truth(isp))
}
