package comap

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"repro/internal/probesched"
)

// CoverageReport quantifies how completely a campaign measured what it
// set out to measure — the graceful-degradation companion to the
// inference Report. Under a faulted measurement plane the inferred
// graphs shrink; this report says how much raw signal was lost on the
// way (probe outcomes, trace yield, hop yield) and how much confidence
// the remaining per-CO inferences carry. It is accounting about the
// measurement, derived only from probe outcomes and the inferred
// graphs, never from simulator ground truth — and it deliberately
// lives outside the JSON inference Report whose bytes the golden
// digests pin.
type CoverageReport struct {
	// Probes is the campaign-wide outcome ledger; Consistent() holds.
	Probes probesched.ProbeStats
	// Traces counts traceroutes run; EmptyTraces those with no
	// responsive hop at all; TruncatedTraces those stopped by the
	// probe budget.
	Traces          int
	EmptyTraces     int
	TruncatedTraces int
	// HopRowsProbed / HopRowsAnswered measure hop yield across traces.
	HopRowsProbed   int
	HopRowsAnswered int
	// DistinctAddrs is the number of distinct responsive addresses
	// observed.
	DistinctAddrs int
	// QuarantinedVPs lists vantage points the circuit breaker benched.
	QuarantinedVPs []netip.Addr
	// Regions breaks the inferred map down per regional network, in
	// region order.
	Regions []RegionCoverage
}

// RegionCoverage is one region's slice of the coverage report.
type RegionCoverage struct {
	Region string
	// COs and AggCOs count inferred central offices.
	COs    int
	AggCOs int
	// Addrs counts interface addresses attached to the region's COs.
	Addrs int
	// MeanConfidence and MinConfidence aggregate per-CO evidence
	// confidence (see COConfidence).
	MeanConfidence float64
	MinConfidence  float64
}

// HopYield is the fraction of probed hop rows that answered.
func (r CoverageReport) HopYield() float64 {
	if r.HopRowsProbed == 0 {
		return 0
	}
	return float64(r.HopRowsAnswered) / float64(r.HopRowsProbed)
}

// COConfidence scores one inferred CO by its supporting evidence: the
// interface addresses mapped to it plus the edges it participates in,
// squashed into (0,1) by e/(e+2). A CO seen through one address and no
// edges scores 1/3; one with five addresses and three edges scores
// 0.8. The scale is heuristic but monotone in evidence, which is what
// the chaos sweep needs: as faults eat observations, confidence must
// fall before the CO disappears outright — degradation, not a cliff.
func COConfidence(g *RegionGraph, key string) float64 {
	node := g.COs[key]
	if node == nil {
		return 0
	}
	evidence := len(node.Addrs)
	for pair := range g.Edges {
		if pair[0] == key || pair[1] == key {
			evidence++
		}
	}
	return float64(evidence) / float64(evidence+2)
}

// BuildCoverage assembles the coverage report for one campaign run.
func BuildCoverage(col *Collection, inf *Inference) CoverageReport {
	r := CoverageReport{
		Probes:          col.Stats,
		Traces:          col.TracesRun,
		EmptyTraces:     col.EmptyTraces,
		TruncatedTraces: col.TruncatedTraces,
		HopRowsProbed:   col.HopRowsProbed,
		HopRowsAnswered: col.HopRowsAnswered,
		DistinctAddrs:   col.NumObserved(),
		QuarantinedVPs:  col.Quarantined,
	}
	if inf == nil {
		return r
	}
	regions := make([]string, 0, len(inf.Regions))
	for name := range inf.Regions {
		regions = append(regions, name)
	}
	sort.Strings(regions)
	for _, name := range regions {
		g := inf.Regions[name]
		rc := RegionCoverage{Region: name, COs: len(g.COs)}
		keys := make([]string, 0, len(g.COs))
		for k := range g.COs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sum float64
		min := 1.0
		for _, k := range keys {
			node := g.COs[k]
			if node.IsAgg {
				rc.AggCOs++
			}
			rc.Addrs += len(node.Addrs)
			conf := COConfidence(g, k)
			sum += conf
			if conf < min {
				min = conf
			}
		}
		if len(keys) > 0 {
			rc.MeanConfidence = sum / float64(len(keys))
			rc.MinConfidence = min
		}
		r.Regions = append(r.Regions, rc)
	}
	return r
}

// Write renders the report as a human-readable table.
func (r CoverageReport) Write(w io.Writer) {
	fmt.Fprintf(w, "probes: sent=%d replied=%d lost=%d rate-limited=%d retries=%d\n",
		r.Probes.Sent, r.Probes.Replied, r.Probes.Lost, r.Probes.RateLimited, r.Probes.Retries)
	fmt.Fprintf(w, "traces: run=%d empty=%d truncated=%d  hop yield: %d/%d (%.1f%%)  addrs=%d\n",
		r.Traces, r.EmptyTraces, r.TruncatedTraces,
		r.HopRowsAnswered, r.HopRowsProbed, 100*r.HopYield(), r.DistinctAddrs)
	if len(r.QuarantinedVPs) > 0 {
		fmt.Fprintf(w, "quarantined VPs: %v\n", r.QuarantinedVPs)
	}
	for _, rc := range r.Regions {
		fmt.Fprintf(w, "region %-10s COs=%-3d agg=%-2d addrs=%-4d confidence mean=%.2f min=%.2f\n",
			rc.Region, rc.COs, rc.AggCOs, rc.Addrs, rc.MeanConfidence, rc.MinConfidence)
	}
}
