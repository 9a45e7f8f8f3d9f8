// Package comap implements the paper's cable-network mapping pipeline
// (§5, Appendices B.1-B.4): a traceroute campaign with rDNS-driven
// target selection, IP-to-CO mapping refined by alias resolution and
// point-to-point subnets (Phase 1), and CO-topology graph construction
// with noise pruning, AggCO identification, ring completion, and entry
// point inference (Phase 2).
//
// The pipeline consumes only measurement observations: traceroute paths,
// DNS lookups, and probe replies. Ground truth never enters here.
package comap

import (
	"net/netip"
)

// Path is the responsive hops of one traceroute, in TTL order, with the
// vantage point recorded for entry analysis. Addresses are the
// Collection's AddrIDs; Collection.Addr resolves them.
type Path struct {
	Src  AddrID
	Dst  AddrID
	Hops []AddrID
	// Gaps[i] is true when one or more unresponsive hops preceded
	// Hops[i]; immediately adjacent hops (Gaps[i]==false) are the only
	// ones the paper treats as links.
	Gaps []bool
	// Reached is true when Dst itself answered.
	Reached bool
}

// MappingStats tracks how each refinement stage of Phase 1 modified the
// IP-to-CO mapping (paper Table 3).
type MappingStats struct {
	Initial int
	// Alias-resolution stage.
	AliasChanged int
	AliasAdded   int
	AliasRemoved int
	// Point-to-point-subnet stage.
	SubnetChanged int
	SubnetAdded   int
	// Final mapping size.
	Final int
}

// PruneStats tracks the adjacency pruning of Phase 2 (paper Table 4),
// in both unique IP-adjacency and unique CO-adjacency terms.
type PruneStats struct {
	InitialIPAdjs int
	InitialCOAdjs int

	BackboneIPAdjs int
	BackboneCOAdjs int

	CrossRegionIPAdjs int
	CrossRegionCOAdjs int

	SingleIPAdjs int
	SingleCOAdjs int

	MPLSIPAdjs int
	MPLSCOAdjs int
}

// CONode is one central office in an inferred region graph.
type CONode struct {
	// Key is the region-qualified CO identifier, e.g.
	// "bverton/troutdale.or" or "socal/sndgcaxk".
	Key string
	// Tag is the bare CO tag from rDNS.
	Tag string
	// IsAgg is the Phase 2 out-degree classification.
	IsAgg bool
	// Addrs are the interface addresses mapped to this CO.
	Addrs []netip.Addr
}

// Entry is an inferred entry point into a region (§5.2.5).
type Entry struct {
	// From is the entering CO: a backbone PoP ("bb:sunnyvale.ca") or a
	// CO of another region.
	From string
	// FirstCOs are the in-region COs the entry leads to.
	FirstCOs []string
}

// RegionGraph is the inferred CO topology of one regional network.
type RegionGraph struct {
	Region string
	COs    map[string]*CONode
	// Edges maps directed CO adjacencies to their observation counts.
	Edges map[[2]string]int
	// AggGroups are the related-AggCO sets inferred in §B.3 (AggCOs
	// believed to terminate the same fiber rings).
	AggGroups [][]string
	// Entries are the inferred entry points.
	Entries []Entry
	// EdgesRemovedEdgeEdge and EdgesAddedRing record the §B.3 graph
	// repairs for reporting.
	EdgesRemovedEdgeEdge int
	EdgesAddedRing       int
}

// AggType classifies a region's aggregation architecture (paper Fig. 8 /
// Table 1).
type AggType uint8

const (
	// AggSingle has one AggCO.
	AggSingle AggType = iota
	// AggTwo has a redundant AggCO pair.
	AggTwo
	// AggMulti has multiple aggregation levels.
	AggMulti
)

func (a AggType) String() string {
	switch a {
	case AggSingle:
		return "single"
	case AggTwo:
		return "two"
	case AggMulti:
		return "multi-level"
	}
	return "unknown"
}

// AggCOs returns the keys classified as aggregation COs, sorted.
func (g *RegionGraph) AggCOs() []string {
	var out []string
	for k, n := range g.COs {
		if n.IsAgg {
			out = append(out, k)
		}
	}
	sortStrings(out)
	return out
}

// EdgeCOs returns the keys not classified as aggregation COs, sorted.
func (g *RegionGraph) EdgeCOs() []string {
	var out []string
	for k, n := range g.COs {
		if !n.IsAgg {
			out = append(out, k)
		}
	}
	sortStrings(out)
	return out
}

// OutDegree returns the number of distinct outgoing CO edges from key.
func (g *RegionGraph) OutDegree(key string) int {
	n := 0
	for e := range g.Edges {
		if e[0] == key {
			n++
		}
	}
	return n
}

// InDegree returns the number of distinct incoming CO edges to key.
func (g *RegionGraph) InDegree(key string) int {
	n := 0
	for e := range g.Edges {
		if e[1] == key {
			n++
		}
	}
	return n
}

// Classify reports the region's aggregation archetype: multi-level when
// any AggCO aggregates another AggCO or when more than two AggCOs serve
// the region (in multi-level regions the top layer's out-degree — a
// handful of sub-AggCOs — falls below the §5.2.2 threshold, so the
// second tier's several AggCOs are the reliable tiering signal);
// otherwise by AggCO count.
func (g *RegionGraph) Classify() AggType {
	agg := map[string]bool{}
	for k, n := range g.COs {
		if n.IsAgg {
			agg[k] = true
		}
	}
	for e := range g.Edges {
		if agg[e[0]] && agg[e[1]] {
			return AggMulti
		}
	}
	if len(agg) <= 1 {
		return AggSingle
	}
	if len(agg) == 2 {
		return AggTwo
	}
	return AggMulti
}

// UpstreamCount returns, for every non-Agg CO, how many distinct COs
// have edges into it (the §B.4 redundancy statistic).
func (g *RegionGraph) UpstreamCount() map[string]int {
	out := map[string]int{}
	for k, n := range g.COs {
		if !n.IsAgg {
			out[k] = g.InDegree(k)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
