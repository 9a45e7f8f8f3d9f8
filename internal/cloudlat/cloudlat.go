// Package cloudlat implements the paper's cloud-to-EdgeCO latency
// studies (§5.5): 100-ping minimum RTT measurements from VMs in every
// U.S. cloud region toward EdgeCO router addresses, the closest-region
// selection, the Fig. 9 per-state medians, and the Fig. 10 CDFs of
// cloud-to-EdgeCO versus AggCO-to-EdgeCO latency.
package cloudlat

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/ping"
	"repro/internal/probesched"
	"repro/internal/vclock"
)

// VM is one cloud vantage point.
type VM struct {
	Provider string
	Region   string
	Addr     netip.Addr
}

// Study carries the measurement context.
type Study struct {
	Net   *netsim.Network
	Clock *vclock.Clock
	VMs   []VM
	// Pings per target (the paper used 100).
	Pings int
	// Parallelism is the probe-scheduler worker count (0 selects
	// GOMAXPROCS). Ping series are independent, so every figure is
	// byte-identical at any value — see internal/probesched.
	Parallelism int
}

func (s *Study) pings() int {
	if s.Pings == 0 {
		return 100
	}
	return s.Pings
}

// MinRTT measures the minimum RTT from src to dst.
func (s *Study) MinRTT(src, dst netip.Addr) (time.Duration, bool) {
	p := &ping.Pinger{Net: s.Net, Clock: s.Clock}
	series := p.Ping(src, dst, s.pings())
	return series.Min()
}

// ClosestVM picks, per provider, the cloud region with the lowest
// minimum RTT to the highest number of targets (§5.5's selection rule).
func (s *Study) ClosestVM(provider string, targets []netip.Addr) (VM, bool) {
	type cand struct {
		vm   VM
		wins int
	}
	var cands []cand
	for _, vm := range s.VMs {
		if vm.Provider == provider {
			cands = append(cands, cand{vm: vm})
		}
	}
	if len(cands) == 0 {
		return VM{}, false
	}
	// All (target, candidate-region) ping series are independent; fan
	// them out and fold wins in the original target-major order.
	p := &ping.Pinger{Net: s.Net, Clock: s.Clock}
	pool := probesched.New(s.Parallelism, s.Clock)
	jobs := make([]probesched.Request, 0, len(targets)*len(cands))
	for _, t := range targets {
		for i := range cands {
			jobs = append(jobs, probesched.Request{Src: cands[i].vm.Addr, Dst: t, Count: s.pings()})
		}
	}
	outs := p.Outcomes(pool, jobs)
	for ti := range targets {
		best := -1
		var bestRTT time.Duration
		for i := range cands {
			rtt, ok := outs[ti*len(cands)+i].Min()
			if !ok {
				continue
			}
			if best < 0 || rtt < bestRTT {
				best, bestRTT = i, rtt
			}
		}
		if best >= 0 {
			cands[best].wins++
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].wins != cands[j].wins {
			return cands[i].wins > cands[j].wins
		}
		return cands[i].vm.Region < cands[j].vm.Region
	})
	return cands[0].vm, true
}

// Fig9Row is one bar of the paper's Fig. 9: the median across a state's
// EdgeCOs of the minimum RTT from a provider's closest cloud region.
type Fig9Row struct {
	Provider string
	Region   string // the chosen cloud region
	State    string
	MedianMs float64
	Targets  int
}

// Figure9 reproduces the Fig. 9 measurement for one set of states. The
// caller supplies EdgeCO router addresses grouped by state (derived from
// inferred CO locations, as the paper derives them from rDNS).
func (s *Study) Figure9(providers []string, targetsByState map[string][]netip.Addr) []Fig9Row {
	var all []netip.Addr
	var states []string
	for st, ts := range targetsByState {
		states = append(states, st)
		all = append(all, ts...)
	}
	sort.Strings(states)
	var rows []Fig9Row
	p := &ping.Pinger{Net: s.Net, Clock: s.Clock}
	pool := probesched.New(s.Parallelism, s.Clock)
	for _, prov := range providers {
		vm, ok := s.ClosestVM(prov, all)
		if !ok {
			continue
		}
		// One ping series per (state, EdgeCO target), fanned out; medians
		// fold per state in sorted-state order.
		var jobs []probesched.Request
		var jobState []string
		for _, st := range states {
			for _, t := range targetsByState[st] {
				jobs = append(jobs, probesched.Request{Src: vm.Addr, Dst: t, Count: s.pings()})
				jobState = append(jobState, st)
			}
		}
		msByState := map[string][]float64{}
		for j, out := range p.Outcomes(pool, jobs) {
			if rtt, ok := out.Min(); ok {
				msByState[jobState[j]] = append(msByState[jobState[j]], float64(rtt)/float64(time.Millisecond))
			}
		}
		for _, st := range states {
			ms := msByState[st]
			if len(ms) == 0 {
				continue
			}
			rows = append(rows, Fig9Row{
				Provider: prov,
				Region:   vm.Region,
				State:    st,
				MedianMs: metrics.NewCDF(ms).Median(),
				Targets:  len(ms),
			})
		}
	}
	return rows
}

// EdgePair couples an EdgeCO router address with an upstream AggCO
// router address on the same path, for the Fig. 10b AggCO-to-EdgeCO
// latency estimate.
type EdgePair struct {
	Edge netip.Addr
	Agg  netip.Addr
}

// Fig10 holds the two CDFs of the paper's Fig. 10 (in milliseconds).
type Fig10 struct {
	CloudToEdge *metrics.CDF
	AggToEdge   *metrics.CDF
}

// Figure10 measures, for every pair, the minimum RTT from the nearest
// cloud VM to the EdgeCO (10a) and the AggCO-to-EdgeCO RTT estimated as
// the difference of minimum RTTs along the shared path (10b). Pairs fan
// out over the probe scheduler; each pair's VM scan stays sequential
// inside its job because the agg leg targets whichever VM won the scan.
func (s *Study) Figure10(pairs []EdgePair) Fig10 {
	type pairRes struct {
		cloud, agg time.Duration
		ok         bool
	}
	pool := probesched.New(s.Parallelism, s.Clock)
	results := probesched.Map(pool, pairs, func(clk *vclock.Clock, pair EdgePair) pairRes {
		cs := *s
		cs.Clock = clk
		cloud, agg, ok := cs.pairRTTs(pair)
		return pairRes{cloud, agg, ok}
	})
	var cloudMs, aggMs []float64
	for _, r := range results {
		if !r.ok {
			continue
		}
		cloudMs = append(cloudMs, float64(r.cloud)/float64(time.Millisecond))
		if r.agg >= 0 {
			aggMs = append(aggMs, float64(r.agg)/float64(time.Millisecond))
		}
	}
	return Fig10{
		CloudToEdge: metrics.NewCDF(cloudMs),
		AggToEdge:   metrics.NewCDF(aggMs),
	}
}

// PairRTT estimates the AggCO-to-EdgeCO RTT of one pair in
// milliseconds, using the minimum-RTT difference from the nearest cloud
// VM along the shared path (§5.5's estimation method).
func (s *Study) PairRTT(pair EdgePair) (float64, bool) {
	_, agg, ok := s.pairRTTs(pair)
	if !ok || agg < 0 {
		return 0, false
	}
	return float64(agg) / float64(time.Millisecond), true
}

// pairRTTs returns the cloud-to-edge minimum RTT and the estimated
// agg-to-edge difference (-1 when the agg leg was unmeasurable).
func (s *Study) pairRTTs(pair EdgePair) (cloud, agg time.Duration, ok bool) {
	bestOK := false
	var best time.Duration
	var bestVM VM
	for _, vm := range s.VMs {
		rtt, ok := s.MinRTT(vm.Addr, pair.Edge)
		if !ok {
			continue
		}
		if !bestOK || rtt < best {
			best, bestVM, bestOK = rtt, vm, true
		}
	}
	if !bestOK {
		return 0, 0, false
	}
	aggRTT, okAgg := s.MinRTT(bestVM.Addr, pair.Agg)
	if !okAgg || aggRTT > best {
		return best, -1, true
	}
	return best, best - aggRTT, true
}
