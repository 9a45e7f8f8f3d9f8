package core

import (
	"sort"

	"repro/internal/cellgeo"
	"repro/internal/cloudlat"
	"repro/internal/edgeplan"
	"repro/internal/energy"
	"repro/internal/mobilemap"
	"repro/internal/resilience"
	"repro/internal/ship"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// The paper's §8 sketches follow-on directions; this file implements
// them over the inference output: resilience analysis, edge-compute
// placement, and accelerometer-paused shipping.

// Resilience runs the failure-impact analysis over every inferred
// region of an operator, returned in region-name order.
func (st *CableStudy) Resilience(isp string) []resilience.Report {
	res := st.Result(isp)
	names := make([]string, 0, len(res.Inference.Regions))
	for n := range res.Inference.Regions {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]resilience.Report, 0, len(names))
	for _, n := range names {
		out = append(out, resilience.Analyze(res.Inference.Regions[n]))
	}
	return out
}

// EdgePlacement measures AggCO-to-EdgeCO latencies over the inferred
// graphs of both operators and greedily places edge compute in AggCOs
// to cover the target fraction of EdgeCOs within budgetMs (§8 "Edge
// Computing"). pings bounds measurement cost; maxPairs bounds the
// matrix size (0 = all pairs).
func (st *CableStudy) EdgePlacement(budgetMs, targetFrac float64, pings, maxPairs int) edgeplan.Comparison {
	study := st.cloudStudy(pings)
	lat := edgeplan.Latency{}
	n := 0
	for _, isp := range []string{"comcast", "charter"} {
		res := st.Result(isp)
		regionNames := make([]string, 0, len(res.Inference.Regions))
		for name := range res.Inference.Regions {
			regionNames = append(regionNames, name)
		}
		sort.Strings(regionNames)
		for _, name := range regionNames {
			g := res.Inference.Regions[name]
			edgeKeys := g.EdgeCOs()
			for _, key := range edgeKeys {
				node := g.COs[key]
				if len(node.Addrs) == 0 {
					continue
				}
				if maxPairs > 0 && n >= maxPairs {
					break
				}
				for e := range g.Edges {
					if e[1] != key {
						continue
					}
					up := g.COs[e[0]]
					if up == nil || !up.IsAgg || len(up.Addrs) == 0 {
						continue
					}
					ms, ok := study.PairRTT(cloudlat.EdgePair{Edge: node.Addrs[0], Agg: up.Addrs[0]})
					if !ok {
						continue
					}
					host := isp + ":" + up.Key
					if lat[host] == nil {
						lat[host] = map[string]float64{}
					}
					lat[host][isp+":"+key] = ms
					n++
					break
				}
			}
		}
	}
	return edgeplan.Compare(lat, budgetMs, targetFrac)
}

// PauseAblationResult compares ShipTraceroute with and without the §8
// accelerometer pause: journey energy against the PGW-inference cost of
// skipping stationary rounds.
type PauseAblationResult struct {
	NormalEnergymAh float64
	PausedEnergymAh float64
	NormalRounds    int
	PausedRounds    int
	// PGWExact counts AT&T regions with exact PGW-count inference.
	NormalPGWExact int
	PausedPGWExact int
	Regions        int
}

// RunPauseAblation ships one extra phone pair on the AT&T-like carrier,
// once probing every hour and once pausing while the parcel rests at
// the destination hub.
func (st *MobileStudy) RunPauseAblation() PauseAblationResult {
	model := energy.Default()
	run := func(pause bool) ([]ship.Round, float64) {
		c := &ship.Campaign{
			Net:         st.Scenario.Net,
			Clock:       vclock.New(st.Scenario.Epoch()),
			Modem:       st.Carriers["att-mobile"].NewModem(),
			CellDB:      cellgeo.NewDB(0.25),
			Targets:     st.Targets,
			Server:      st.Server,
			Mode:        traceroute.Parallel,
			PauseAtRest: pause,
		}
		var rounds []ship.Round
		for _, it := range ship.Shipments() {
			rounds = append(rounds, c.Run(it)...)
		}
		return rounds, ship.JourneyEnergy(rounds, model)
	}
	normal, normalE := run(false)
	paused, pausedE := run(true)

	exact := func(rounds []ship.Round) int {
		a := mobilemap.AnalyzeParallel(rounds, st.Scenario.DNS, st.cfg.Parallelism)
		truth := st.Carriers["att-mobile"]
		n := 0
		for _, reg := range truth.Regions {
			if got, ok := a.PGWCounts[reg.Spec.UserBits]; ok && got == len(reg.PGWs) {
				n++
			}
		}
		return n
	}
	measured := func(rounds []ship.Round) int {
		n := 0
		for _, r := range rounds {
			if r.OK {
				n++
			}
		}
		return n
	}
	return PauseAblationResult{
		NormalEnergymAh: normalE,
		PausedEnergymAh: pausedE,
		NormalRounds:    measured(normal),
		PausedRounds:    measured(paused),
		NormalPGWExact:  exact(normal),
		PausedPGWExact:  exact(paused),
		Regions:         len(st.Carriers["att-mobile"].Regions),
	}
}
