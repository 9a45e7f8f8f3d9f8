package comap

// Unit tests for the Phase 2 graph algorithms over hand-built graphs,
// complementing the end-to-end pipeline tests in comap_test.go.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/symtab"
)

// buildGraph constructs a RegionGraph from edge pairs.
func buildGraph(region string, edges [][2]string) *RegionGraph {
	g := &RegionGraph{Region: region, COs: map[string]*CONode{}, Edges: map[[2]string]int{}}
	for _, e := range edges {
		g.Edges[e] = 2
		for _, key := range e {
			if g.COs[key] == nil {
				g.COs[key] = &CONode{Key: key, Tag: key}
			}
		}
	}
	return g
}

// star builds agg -> e1..eN edges.
func starEdges(agg string, n int) [][2]string {
	var out [][2]string
	for i := 0; i < n; i++ {
		out = append(out, [2]string{agg, fmt.Sprintf("%s-e%02d", agg, i)})
	}
	return out
}

func TestIdentifyAggCOsStar(t *testing.T) {
	g := buildGraph("r", starEdges("agg", 12))
	identifyAggCOs(g)
	if !g.COs["agg"].IsAgg {
		t.Error("hub not classified as AggCO")
	}
	for key, node := range g.COs {
		if key != "agg" && node.IsAgg {
			t.Errorf("leaf %s classified as AggCO", key)
		}
	}
}

func TestIdentifyAggCOsRequiresDegreeTwo(t *testing.T) {
	// A 2-CO graph: out-degree 1 must never be an AggCO even when it
	// exceeds mean+stddev.
	g := buildGraph("r", [][2]string{{"a", "b"}})
	identifyAggCOs(g)
	if g.COs["a"].IsAgg {
		t.Error("degree-1 CO classified as AggCO")
	}
}

func TestRemoveEdgeEdgeEdges(t *testing.T) {
	edges := starEdges("agg", 10)
	// A stale-rDNS artifact: two leaves appear connected.
	edges = append(edges, [2]string{"agg-e00", "agg-e01"})
	g := buildGraph("r", edges)
	identifyAggCOs(g)
	removeEdgeEdgeEdges(g)
	if _, ok := g.Edges[[2]string{"agg-e00", "agg-e01"}]; ok {
		t.Error("edge-to-edge artifact survived")
	}
	if g.EdgesRemovedEdgeEdge != 1 {
		t.Errorf("removed = %d, want 1", g.EdgesRemovedEdgeEdge)
	}
	// Legitimate edges intact.
	if len(g.Edges) != 10 {
		t.Errorf("edges = %d, want 10", len(g.Edges))
	}
}

func TestSmallAggCOException(t *testing.T) {
	// x aggregates two EdgeCOs that have no AggCO connectivity of their
	// own: B.3 keeps those edges (x functions as a small AggCO).
	edges := starEdges("agg", 10)
	edges = append(edges,
		[2]string{"agg", "x"},
		[2]string{"x", "orphan1"},
		[2]string{"x", "orphan2"},
	)
	g := buildGraph("r", edges)
	identifyAggCOs(g)
	removeEdgeEdgeEdges(g)
	if _, ok := g.Edges[[2]string{"x", "orphan1"}]; !ok {
		t.Error("small-AggCO edge x->orphan1 pruned")
	}
	if _, ok := g.Edges[[2]string{"x", "orphan2"}]; !ok {
		t.Error("small-AggCO edge x->orphan2 pruned")
	}
}

func TestPairAggCOsRingCompletion(t *testing.T) {
	// Two AggCOs share 8 of 10 EdgeCOs; pairing should add the missing
	// edges so both serve the union.
	var edges [][2]string
	for i := 0; i < 10; i++ {
		e := fmt.Sprintf("e%02d", i)
		edges = append(edges, [2]string{"aggA", e})
		if i >= 2 { // aggB misses e00 and e01
			edges = append(edges, [2]string{"aggB", e})
		}
	}
	g := buildGraph("r", edges)
	identifyAggCOs(g)
	if !g.COs["aggA"].IsAgg || !g.COs["aggB"].IsAgg {
		t.Fatal("agg pair not classified")
	}
	pairAggCOsAndComplete(g)
	foundPair := false
	for _, grp := range g.AggGroups {
		if len(grp) == 2 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Fatalf("agg pair not grouped: %v", g.AggGroups)
	}
	for _, e := range []string{"e00", "e01"} {
		if _, ok := g.Edges[[2]string{"aggB", e}]; !ok {
			t.Errorf("ring completion did not add aggB->%s", e)
		}
	}
	if g.EdgesAddedRing != 2 {
		t.Errorf("added = %d, want 2", g.EdgesAddedRing)
	}
}

func TestPairAggCOsRejectsDisjoint(t *testing.T) {
	// Two AggCOs with disjoint EdgeCO sets must not pair.
	var edges [][2]string
	for i := 0; i < 8; i++ {
		edges = append(edges, [2]string{"aggA", fmt.Sprintf("a%02d", i)})
		edges = append(edges, [2]string{"aggB", fmt.Sprintf("b%02d", i)})
	}
	g := buildGraph("r", edges)
	identifyAggCOs(g)
	pairAggCOsAndComplete(g)
	for _, grp := range g.AggGroups {
		if len(grp) > 1 {
			t.Fatalf("disjoint AggCOs grouped: %v", grp)
		}
	}
	if g.EdgesAddedRing != 0 {
		t.Errorf("ring completion added %d edges to disjoint stars", g.EdgesAddedRing)
	}
}

func TestClassify(t *testing.T) {
	single := buildGraph("r", starEdges("agg", 8))
	identifyAggCOs(single)
	if got := single.Classify(); got != AggSingle {
		t.Errorf("single star = %v", got)
	}

	// Dual: two AggCOs over the same edges, no agg-agg edge.
	var dualEdges [][2]string
	for i := 0; i < 8; i++ {
		e := fmt.Sprintf("e%02d", i)
		dualEdges = append(dualEdges, [2]string{"aggA", e}, [2]string{"aggB", e})
	}
	dual := buildGraph("r", dualEdges)
	identifyAggCOs(dual)
	if got := dual.Classify(); got != AggTwo {
		t.Errorf("dual star = %v", got)
	}

	// Multi: top pair aggregates a second tier.
	multiEdges := append([][2]string{}, dualEdges...)
	multiEdges = append(multiEdges, [2]string{"top", "aggA"}, [2]string{"top", "aggB"})
	for i := 0; i < 6; i++ {
		multiEdges = append(multiEdges, [2]string{"top", fmt.Sprintf("t%02d", i)})
	}
	multi := buildGraph("r", multiEdges)
	identifyAggCOs(multi)
	if got := multi.Classify(); got != AggMulti {
		t.Errorf("multi-level = %v", got)
	}
}

func TestDegreesAndRoleAccessors(t *testing.T) {
	g := buildGraph("r", starEdges("agg", 5))
	identifyAggCOs(g)
	if got := g.OutDegree("agg"); got != 5 {
		t.Errorf("OutDegree = %d", got)
	}
	if got := g.InDegree("agg-e03"); got != 1 {
		t.Errorf("InDegree = %d", got)
	}
	if len(g.AggCOs()) != 1 || len(g.EdgeCOs()) != 5 {
		t.Errorf("role accessors: aggs=%d edges=%d", len(g.AggCOs()), len(g.EdgeCOs()))
	}
	ups := g.UpstreamCount()
	for _, e := range g.EdgeCOs() {
		if ups[e] != 1 {
			t.Errorf("upstream count for %s = %d", e, ups[e])
		}
	}
}

func TestMajority(t *testing.T) {
	tab := symtab.New(0)
	b, a := tab.Intern("b"), tab.Intern("a")
	top, tied := majoritySym(tab, map[symtab.Sym]int{a: 3, b: 1})
	if top != a || tied {
		t.Errorf("majority = %q tied=%v", tab.Str(top), tied)
	}
	// A tie is reported, with the lexicographically smallest key as
	// representative although it was interned second.
	top, tied = majoritySym(tab, map[symtab.Sym]int{a: 2, b: 2})
	if !tied || top != a {
		t.Errorf("tied majority = %q tied=%v, want a tied=true", tab.Str(top), tied)
	}
	if _, tied = majoritySym(tab, map[symtab.Sym]int{}); tied {
		t.Error("empty majority reported a tie")
	}
}

func TestRegionOf(t *testing.T) {
	if r, ok := regionOf("bverton/troutdale.or"); !ok || r != "bverton" {
		t.Errorf("regionOf = %q %v", r, ok)
	}
	if _, ok := regionOf("bb:sunnyvale.ca"); ok {
		t.Error("backbone key treated as regional")
	}
	if _, ok := regionOf("noslash"); ok {
		t.Error("malformed key treated as regional")
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildGraph("r", starEdges("agg", 3))
	identifyAggCOs(g)
	g.Edges[[2]string{"agg", "ring-added"}] = 1 // inferred edge
	g.COs["ring-added"] = &CONode{Key: "ring-added", Tag: "ring-added"}
	g.Entries = []Entry{{From: "bb:x", FirstCOs: []string{"agg"}}}
	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`digraph "r"`,
		`fillcolor=orange`,   // the AggCO
		`style=dashed`,       // the inferred edge
		`"bb:x" -> "agg"`,    // the entry
		`"agg" -> "agg-e00"`, // an observed edge
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var sb2 strings.Builder
	if err := g.WriteDOT(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("DOT output not deterministic")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	g := buildGraph("r", starEdges("agg", 3))
	identifyAggCOs(g)
	g.Entries = []Entry{{From: "bb:x", FirstCOs: []string{"agg"}}}
	res := &Result{
		Collection: &Collection{},
		Mapping:    &Mapping{Stats: MappingStats{Initial: 10, Final: 12}, P2PBits: 30},
		Inference:  &Inference{Regions: map[string]*RegionGraph{"r": g}, P2PBits: 30},
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb, "testisp"); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.ISP != "testisp" || back.P2PBits != 30 {
		t.Errorf("header = %+v", back)
	}
	if len(back.Regions) != 1 || back.Regions[0].Name != "r" {
		t.Fatalf("regions = %+v", back.Regions)
	}
	rr := back.Regions[0]
	if rr.Type != "single" || len(rr.COs) != 4 || len(rr.Edges) != 3 || len(rr.Entries) != 1 {
		t.Errorf("region report = %+v", rr)
	}
	// Deterministic serialization.
	var sb2 strings.Builder
	if err := res.WriteJSON(&sb2, "testisp"); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("JSON not deterministic")
	}
}

func TestBuildingRedundancyUnit(t *testing.T) {
	g := buildGraph("socal", [][2]string{
		{"lsancaaa", "sndgcaxk"},
		{"lsancabb", "sndgcaxk"},
		{"lsancaaa", "anhmcaaa"},
		{"lsancabb", "anhmcaaa"},
	})
	g.COs["lsancaaa"].IsAgg = true
	g.COs["lsancabb"].IsAgg = true
	// A non-CLLI tag must be ignored.
	g.COs["oddtag"] = &CONode{Key: "oddtag", Tag: "troutdale.or"}
	stats := BuildingRedundancy(g)
	if stats.Cities != 3 {
		t.Errorf("cities = %d, want 3 (lsanca, sndgca, anhmca)", stats.Cities)
	}
	if stats.MultiBuilding != 1 {
		t.Errorf("multi-building cities = %d, want 1 (lsanca)", stats.MultiBuilding)
	}
	if stats.RedundantAggCities != 1 {
		t.Errorf("redundant agg cities = %d, want 1", stats.RedundantAggCities)
	}
	if got := stats.Buildings["lsanca"]; len(got) != 2 {
		t.Errorf("lsanca buildings = %v", got)
	}
}

func TestDiffReports(t *testing.T) {
	mkReport := func(mutate func(*RegionGraph)) Report {
		g := buildGraph("r", starEdges("agg", 4))
		identifyAggCOs(g)
		if mutate != nil {
			mutate(g)
		}
		res := &Result{
			Mapping:   &Mapping{Stats: MappingStats{}, P2PBits: 30},
			Inference: &Inference{Regions: map[string]*RegionGraph{"r": g}, P2PBits: 30},
		}
		return res.BuildReport("x")
	}
	base := mkReport(nil)
	if d := DiffReports(base, base); !d.Empty() {
		t.Errorf("self-diff not empty: %+v", d)
	}
	changed := mkReport(func(g *RegionGraph) {
		delete(g.Edges, [2]string{"agg", "agg-e00"})
		delete(g.COs, "agg-e00")
		g.COs["newco"] = &CONode{Key: "newco", Tag: "newco"}
		g.Edges[[2]string{"agg", "newco"}] = 3
	})
	d := DiffReports(base, changed)
	if d.Empty() {
		t.Fatal("diff of modified graph is empty")
	}
	rd := d.Regions["r"]
	if len(rd.COsAdded) != 1 || rd.COsAdded[0] != "newco" {
		t.Errorf("COs added = %v", rd.COsAdded)
	}
	if len(rd.COsRemoved) != 1 || rd.COsRemoved[0] != "agg-e00" {
		t.Errorf("COs removed = %v", rd.COsRemoved)
	}
	if len(rd.EdgesAdded) != 1 || len(rd.EdgesRemoved) != 1 {
		t.Errorf("edges added=%v removed=%v", rd.EdgesAdded, rd.EdgesRemoved)
	}
	// Region appearing/disappearing.
	extra := mkReport(nil)
	extra.Regions = append(extra.Regions, RegionReport{Name: "zz", Type: "single"})
	d2 := DiffReports(base, extra)
	if len(d2.RegionsAdded) != 1 || d2.RegionsAdded[0] != "zz" {
		t.Errorf("regions added = %v", d2.RegionsAdded)
	}
	d3 := DiffReports(extra, base)
	if len(d3.RegionsRemoved) != 1 {
		t.Errorf("regions removed = %v", d3.RegionsRemoved)
	}
}
