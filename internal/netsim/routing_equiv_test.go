package netsim_test

// The flat route tables against the retired incremental ones kept in
// routing_ref_test.go: random graphs built to stress tie-breaking, and
// the generated seed-7 topologies every study probes.

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topogen"
)

// refTopology is one generated topology the reference tests walk.
type refTopology struct {
	name string
	net  *netsim.Network
}

func seed7Topologies(t *testing.T) []refTopology {
	t.Helper()
	cable := func(sc topogen.Scale) *netsim.Network {
		s := topogen.NewScenario(7)
		s.BuildCable(topogen.ComcastProfile().Scaled(sc))
		s.BuildCable(topogen.CharterProfile().Scaled(sc))
		return s.Net
	}
	att := topogen.NewScenario(7)
	att.BuildTelco(topogen.ATTProfile())
	tops := []refTopology{
		{"cable-1x", cable(topogen.Scale{})},
		{"att", att.Net},
	}
	if !testing.Short() {
		tops = append(tops, refTopology{"cable-3x", cable(topogen.Scale{Regions: 3, Subscribers: 300000})})
	}
	return tops
}

// sampleRouters draws k distinct router IDs of n (all of them when
// k >= len).
func sampleRouters(rng *rand.Rand, n *netsim.Network, k int) []netsim.RouterID {
	rs := n.Routers()
	ids := make([]netsim.RouterID, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	if k >= len(ids) {
		return ids
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:k]
}

func randomFlowIDs(rng *rand.Rand, k int) []uint16 {
	out := make([]uint16, k)
	for i := range out {
		out[i] = uint16(rng.Intn(1 << 16))
	}
	return out
}

// TestShortestPathsMatchReference holds every flat tree to the
// incremental build: the same distances and, for every router, the same
// predecessors in the same order.
func TestShortestPathsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := netsim.RandomRoutingNet(seed, 20+int(seed)*15)
		for _, r := range n.Routers() {
			if err := netsim.ShortestPathsMatchReference(n, r.ID); err != nil {
				t.Fatalf("random net %d: %v", seed, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, top := range seed7Topologies(t) {
		for _, src := range sampleRouters(rng, top.net, 48) {
			if err := netsim.ShortestPathsMatchReference(top.net, src); err != nil {
				t.Fatalf("%s: %v", top.name, err)
			}
		}
	}
}

// TestRouterPathMatchesReference holds the single-predecessor walk,
// which hashes only at ECMP branch points and reads delays from the
// tree, to the walk that hashed everywhere and read them off the links.
func TestRouterPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 12; seed++ {
		n := netsim.RandomRoutingNet(seed, 20+int(seed)*15)
		for _, src := range sampleRouters(rng, n, 8) {
			if err := netsim.RouterPathsMatchReference(n, src, sampleRouters(rng, n, 1000), randomFlowIDs(rng, 8)); err != nil {
				t.Fatalf("random net %d: %v", seed, err)
			}
		}
	}
	for _, top := range seed7Topologies(t) {
		for _, src := range sampleRouters(rng, top.net, 8) {
			if err := netsim.RouterPathsMatchReference(top.net, src, sampleRouters(rng, top.net, 200), randomFlowIDs(rng, 4)); err != nil {
				t.Fatalf("%s: %v", top.name, err)
			}
		}
	}
}

// TestVisiblePathMatchesReference holds the egress-set visibility pass
// to the per-tunnel scan on the AT&T topology, whose backbone and EdgeCO
// routers originate dozens of LSPs each. From each sampled ingress it
// probes, toward each of its egresses, routers inside the LSP (before
// the egress), the egress itself, and the egress's neighbours (past
// it), each both router-addressed and host-addressed; and it probes the
// same destinations from a router upstream of the ingress.
func TestVisiblePathMatchesReference(t *testing.T) {
	s := topogen.NewScenario(7)
	s.BuildTelco(topogen.ATTProfile())
	n := s.Net
	rs := n.Routers()
	var ingresses []*netsim.Router
	maxLSPs := 0
	for _, r := range rs {
		if k := len(netsim.LSPEgress(r)); k > 0 {
			ingresses = append(ingresses, r)
			maxLSPs = max(maxLSPs, k)
		}
	}
	if maxLSPs < 80 {
		t.Fatalf("largest AT&T LSP set is %d egresses, want the 80-odd a backbone ingress originates", maxLSPs)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(ingresses), func(i, j int) { ingresses[i], ingresses[j] = ingresses[j], ingresses[i] })
	// Keep the largest ingress in the sample whatever the shuffle.
	for i, r := range ingresses {
		if len(netsim.LSPEgress(r)) == maxLSPs {
			ingresses[0], ingresses[i] = ingresses[i], ingresses[0]
			break
		}
	}
	ingresses = ingresses[:min(len(ingresses), 12)]

	var vc netsim.VisibleCase
	before := 0
	flows := []uint16{0, 0x7e77}
	for _, in := range ingresses {
		var dsts []netsim.RouterID
		for _, e := range netsim.LSPEgress(in) {
			path := netsim.PathRouters(n, in.ID, e, 0)
			if len(path) < 3 {
				continue
			}
			before += len(path) - 2
			dsts = append(dsts, path[1:]...)
			for _, ifc := range rs[e].Interfaces() {
				if ifc.Link != nil {
					dsts = append(dsts, ifc.Link.Other(ifc).Router.ID)
				}
			}
		}
		srcs := []netsim.RouterID{in.ID}
		for _, ifc := range in.Interfaces() {
			if ifc.Link != nil {
				srcs = append(srcs, ifc.Link.Other(ifc).Router.ID)
				break
			}
		}
		for _, src := range srcs {
			if err := netsim.VisiblePathsMatchReference(n, src, dsts, flows, &vc); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d ingresses (largest %d LSPs): %d before-egress destinations, %+v", len(ingresses), maxLSPs, before, vc)
	if before == 0 || vc.DPROn == 0 || vc.DPRPast == 0 || vc.Hidden == 0 {
		t.Fatalf("cases not all exercised: %d before-egress destinations, %+v", before, vc)
	}

	// Random graphs with random LSPs, where one path often rides
	// several LSPs of one ingress and nested or overlapping LSPs of
	// several.
	for seed := int64(1); seed <= 8; seed++ {
		n := netsim.RandomRoutingNet(seed, 60)
		rs := n.Routers()
		for k := 0; k < 4*len(rs); k++ {
			n.AddTunnel(rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))])
		}
		all := sampleRouters(rng, n, len(rs))
		for _, src := range all {
			if err := netsim.VisiblePathsMatchReference(n, src, all, flows, &vc); err != nil {
				t.Fatalf("random net %d: %v", seed, err)
			}
		}
	}
}
