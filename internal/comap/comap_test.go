package comap

import (
	"strings"
	"testing"

	"repro/internal/topogen"
	"repro/internal/vclock"
)

// pipelineFixture runs the full pipeline once per ISP and caches the
// results; the underlying campaign is the expensive part of this test
// suite.
type fixture struct {
	scenario *topogen.Scenario
	comcast  *topogen.ISP
	charter  *topogen.ISP
	resC     *Result // comcast
	resH     *Result // charter
}

var fx *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	s := topogen.NewScenario(7)
	comcast := s.BuildCable(topogen.ComcastProfile())
	charter := s.BuildCable(topogen.CharterProfile())
	vps := s.StandardVPs(comcast, charter)
	run := func(isp *topogen.ISP) *Result {
		c := &Campaign{
			Net:       s.Net,
			DNS:       s.DNS,
			Clock:     vclock.New(s.Epoch()),
			ISP:       isp.Name,
			VPs:       vps,
			Announced: isp.Announced,
		}
		return Run(c)
	}
	fx = &fixture{
		scenario: s,
		comcast:  comcast,
		charter:  charter,
		resC:     run(comcast),
		resH:     run(charter),
	}
	return fx
}

func TestPipelineDiscoversAllRegions(t *testing.T) {
	f := getFixture(t)
	for _, tt := range []struct {
		isp *topogen.ISP
		res *Result
	}{{f.comcast, f.resC}, {f.charter, f.resH}} {
		for name := range tt.isp.Regions {
			g := tt.res.Inference.Regions[name]
			if g == nil {
				t.Errorf("%s: region %q not discovered", tt.isp.Name, name)
				continue
			}
			truth := tt.isp.Regions[name]
			found := float64(len(g.COs))
			actual := float64(len(truth.COs))
			if found < 0.6*actual {
				t.Errorf("%s/%s: found %d COs of %d", tt.isp.Name, name, len(g.COs), len(truth.COs))
			}
		}
	}
}

func TestCORecoveryPrecision(t *testing.T) {
	f := getFixture(t)
	// Inferred CO tags must correspond to ground-truth COs of the same
	// region: phantom COs from stale rDNS should have been pruned.
	for _, tt := range []struct {
		isp *topogen.ISP
		res *Result
	}{{f.comcast, f.resC}, {f.charter, f.resH}} {
		total, phantom := 0, 0
		for name, g := range tt.res.Inference.Regions {
			truth := tt.isp.Regions[name]
			if truth == nil {
				t.Errorf("%s: inferred unknown region %q", tt.isp.Name, name)
				continue
			}
			tags := map[string]bool{}
			for _, co := range truth.COs {
				tags[co.Tag] = true
			}
			for _, node := range g.COs {
				total++
				if !tags[node.Tag] {
					phantom++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: empty inference", tt.isp.Name)
		}
		if frac := float64(phantom) / float64(total); frac > 0.03 {
			t.Errorf("%s: phantom CO fraction %.3f (%d/%d), want <= 3%%", tt.isp.Name, frac, phantom, total)
		}
	}
}

func TestP2PBitsInferred(t *testing.T) {
	f := getFixture(t)
	if got := f.resC.Inference.P2PBits; got != 30 {
		t.Errorf("comcast p2p bits = %d, want 30", got)
	}
	if got := f.resH.Inference.P2PBits; got != 31 {
		t.Errorf("charter p2p bits = %d, want 31", got)
	}
}

func TestAggCOIdentification(t *testing.T) {
	f := getFixture(t)
	// In bverton (dual-agg) the two ground-truth AggCO tags must be
	// classified as AggCOs.
	g := f.resC.Inference.Regions["bverton"]
	if g == nil {
		t.Fatal("bverton missing")
	}
	truth := f.comcast.Regions["bverton"]
	wantAgg := map[string]bool{}
	for _, co := range truth.COs {
		if co.Role == topogen.AggCO {
			wantAgg[co.Tag] = true
		}
	}
	gotAgg := map[string]bool{}
	for _, key := range g.AggCOs() {
		gotAgg[g.COs[key].Tag] = true
	}
	for tag := range wantAgg {
		if !gotAgg[tag] {
			t.Errorf("ground-truth AggCO %q not classified as AggCO", tag)
		}
	}
	// Few false AggCOs.
	extra := 0
	for tag := range gotAgg {
		if !wantAgg[tag] {
			extra++
		}
	}
	if extra > 2 {
		t.Errorf("%d spurious AggCOs in bverton", extra)
	}
}

func TestClassification(t *testing.T) {
	f := getFixture(t)
	wantType := func(layers int) AggType {
		switch layers {
		case 1:
			return AggSingle
		case 2:
			return AggTwo
		default:
			return AggMulti
		}
	}
	misses := 0
	for name, truth := range f.comcast.Regions {
		g := f.resC.Inference.Regions[name]
		if g == nil {
			continue
		}
		if g.Classify() != wantType(truth.AggLayers) {
			misses++
			t.Logf("comcast/%s classified %v, truth %d layers", name, g.Classify(), truth.AggLayers)
		}
	}
	if misses > 5 {
		t.Errorf("comcast type misclassifications = %d of 28", misses)
	}
	for name := range f.charter.Regions {
		g := f.resH.Inference.Regions[name]
		if g == nil {
			t.Errorf("charter/%s missing", name)
			continue
		}
		if got := g.Classify(); got != AggMulti {
			t.Errorf("charter/%s classified %v, want multi-level", name, got)
		}
	}
}

func TestEntryInference(t *testing.T) {
	f := getFixture(t)
	// boston: two backbone entries.
	g := f.resC.Inference.Regions["boston"]
	if g == nil {
		t.Fatal("boston missing")
	}
	bb := 0
	for _, e := range g.Entries {
		if strings.HasPrefix(e.From, "bb:") {
			bb++
		}
	}
	if bb < 2 {
		t.Errorf("boston backbone entries = %d, want >= 2 (%v)", bb, g.Entries)
	}
	// hartford: entered via boston COs, not the backbone.
	h := f.resC.Inference.Regions["hartford"]
	if h == nil {
		t.Fatal("hartford missing")
	}
	viaBoston, viaBackbone := false, false
	for _, e := range h.Entries {
		if strings.HasPrefix(e.From, "boston/") {
			viaBoston = true
		}
		if strings.HasPrefix(e.From, "bb:") {
			viaBackbone = true
		}
	}
	if !viaBoston {
		t.Errorf("hartford lacks a boston entry: %v", h.Entries)
	}
	if viaBackbone {
		t.Errorf("hartford shows a direct backbone entry it should not have: %v", h.Entries)
	}
	// centralca: both backbone and sanfrancisco entries.
	cc := f.resC.Inference.Regions["centralca"]
	if cc == nil {
		t.Fatal("centralca missing")
	}
	viaSF, viaBB := false, false
	for _, e := range cc.Entries {
		if strings.HasPrefix(e.From, "sanfrancisco/") {
			viaSF = true
		}
		if strings.HasPrefix(e.From, "bb:") {
			viaBB = true
		}
	}
	if !viaSF || !viaBB {
		t.Errorf("centralca entries: viaSF=%v viaBB=%v (%v)", viaSF, viaBB, cc.Entries)
	}
}

func TestPruneStatsShape(t *testing.T) {
	f := getFixture(t)
	for _, res := range []*Result{f.resC, f.resH} {
		p := res.Inference.Prune
		if p.InitialIPAdjs == 0 || p.InitialCOAdjs == 0 {
			t.Fatal("no adjacencies collected")
		}
		if p.BackboneIPAdjs == 0 {
			t.Error("no backbone adjacencies pruned; paths never crossed the backbone?")
		}
		if p.CrossRegionCOAdjs == 0 {
			t.Error("no cross-region adjacencies pruned; stale-rDNS noise missing?")
		}
	}
	// Comcast has more stale rDNS, so it loses relatively more
	// cross-region CO adjacencies than Charter (Table 4's contrast).
	cFrac := float64(f.resC.Inference.Prune.CrossRegionCOAdjs) / float64(f.resC.Inference.Prune.InitialCOAdjs)
	hFrac := float64(f.resH.Inference.Prune.CrossRegionCOAdjs) / float64(f.resH.Inference.Prune.InitialCOAdjs)
	if cFrac <= hFrac {
		t.Errorf("cross-region CO prune fraction: comcast %.3f <= charter %.3f", cFrac, hFrac)
	}
}

func TestMappingStatsShape(t *testing.T) {
	f := getFixture(t)
	for _, tt := range []struct {
		name string
		res  *Result
	}{{"comcast", f.resC}, {"charter", f.resH}} {
		st := tt.res.Mapping.Stats
		if st.Initial == 0 {
			t.Fatalf("%s: empty initial mapping", tt.name)
		}
		if st.AliasAdded == 0 && st.AliasChanged == 0 {
			t.Errorf("%s: alias resolution refined nothing", tt.name)
		}
		if st.SubnetAdded == 0 && st.SubnetChanged == 0 {
			t.Errorf("%s: p2p subnet stage refined nothing", tt.name)
		}
		if st.Final < st.Initial {
			t.Errorf("%s: mapping shrank %d -> %d", tt.name, st.Initial, st.Final)
		}
	}
}

func TestMPLSFalseEdgeRemoval(t *testing.T) {
	f := getFixture(t)
	// In the maine region, no surviving edge should run from a tier-1
	// AggCO tag straight to an EdgeCO that the ground truth places under
	// a tier-2 AggCO.
	truth := f.charter.Regions["maine"]
	g := f.resH.Inference.Regions["maine"]
	if g == nil {
		t.Fatal("maine missing")
	}
	if len(f.resH.Collection.FalsePairs()) == 0 {
		t.Fatal("no MPLS false pairs detected in charter")
	}
	if f.resH.Inference.Prune.MPLSCOAdjs == 0 {
		t.Error("no CO adjacencies removed by the MPLS heuristic")
	}
	// Ground-truth tier-1 tags.
	tier1 := map[string]bool{}
	childOfTier2 := map[string]bool{}
	for _, co := range truth.COs {
		if co.Role == topogen.AggCO && co.Tier == 1 {
			tier1[co.Tag] = true
		}
	}
	for _, co := range truth.COs {
		if co.Role != topogen.EdgeCO {
			continue
		}
		for _, up := range co.Upstream {
			parent := truth.COs[up]
			if parent != nil && parent.Role == topogen.AggCO && parent.Tier == 2 {
				childOfTier2[co.Tag] = true
			}
		}
	}
	bad := 0
	for e := range g.Edges {
		a, b := g.COs[e[0]], g.COs[e[1]]
		if a != nil && b != nil && tier1[a.Tag] && childOfTier2[b.Tag] {
			bad++
		}
	}
	if bad > 3 {
		t.Errorf("%d false tier1->edge adjacencies survived MPLS pruning", bad)
	}
}

func TestSoutheastRedundancyInvisible(t *testing.T) {
	f := getFixture(t)
	// The southeast region's redundant uplinks never carry traffic, so
	// single-upstream EdgeCOs should dominate there (the B.4 anomaly).
	se := f.resH.Inference.Regions["southeast"]
	other := f.resH.Inference.Regions["socal"]
	if se == nil || other == nil {
		t.Fatal("regions missing")
	}
	frac := func(g *RegionGraph) float64 {
		ups := g.UpstreamCount()
		single, total := 0, 0
		for _, n := range ups {
			if n == 0 {
				continue
			}
			total++
			if n == 1 {
				single++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(single) / float64(total)
	}
	if fse, fso := frac(se), frac(other); fse <= fso {
		t.Errorf("southeast single-upstream fraction %.2f <= socal %.2f; hidden redundancy not reproduced", fse, fso)
	}
}

// TestCharterBuildingRedundancy exercises the §1 claim end to end: the
// inferred Charter graphs expose multi-building cities including dual
// AggCO buildings in the metros.
func TestCharterBuildingRedundancy(t *testing.T) {
	f := getFixture(t)
	totalMulti, totalRedundant := 0, 0
	for _, g := range f.resH.Inference.Regions {
		stats := BuildingRedundancy(g)
		if stats.Cities == 0 {
			t.Errorf("%s: no CLLI-tagged COs", g.Region)
		}
		totalMulti += stats.MultiBuilding
		totalRedundant += stats.RedundantAggCities
	}
	if totalMulti < 6 {
		t.Errorf("multi-building cities = %d, want at least one per region", totalMulti)
	}
	if totalRedundant < 3 {
		t.Errorf("dual-AggCO-building cities = %d", totalRedundant)
	}
	// Comcast's location-style tags are not CLLI: the analysis reports
	// no buildings rather than garbage.
	for _, g := range f.resC.Inference.Regions {
		if stats := BuildingRedundancy(g); stats.Cities != 0 {
			t.Errorf("comcast %s: CLLI analysis matched %d location tags", g.Region, stats.Cities)
			break
		}
	}
}

// TestMultiLevelTierStructure pins the structural insight behind
// Classify: in multi-level regions the §5.2.2 out-degree threshold
// selects the second-tier AggCOs (each serving many EdgeCOs), while the
// top layer — whose out-degree is just a handful of sub-AggCOs — often
// falls below it. Tiering is therefore signalled by AggCO count.
func TestMultiLevelTierStructure(t *testing.T) {
	f := getFixture(t)
	truth := f.comcast.Regions["sanfrancisco"]
	g := f.resC.Inference.Regions["sanfrancisco"]
	if g == nil {
		t.Fatal("sanfrancisco missing")
	}
	tier2Tags := map[string]bool{}
	for _, co := range truth.COs {
		if co.Role == topogen.AggCO && co.Tier == 2 {
			tier2Tags[co.Tag] = true
		}
	}
	aggTags := map[string]bool{}
	for _, key := range g.AggCOs() {
		aggTags[g.COs[key].Tag] = true
	}
	for tag := range tier2Tags {
		if !aggTags[tag] {
			t.Errorf("tier-2 AggCO %q not classified", tag)
		}
	}
	if got := g.Classify(); got != AggMulti {
		t.Errorf("sanfrancisco classified %v", got)
	}
}
