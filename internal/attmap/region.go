package attmap

import (
	"net/netip"
	"sort"

	"repro/internal/alias"
	"repro/internal/hostnames"
	"repro/internal/probesched"
	"repro/internal/traceroute"
)

// mapRegion builds the router- and CO-level map of one region from
// internal vantage points plus inter-region DPR traceroutes (§6.1-6.2,
// Appendix C). boots is the bootstrap VP list with breaker-benched VPs
// already removed; stats receives every probe outcome of the region's
// waves (traceroute and alias alike).
func (c *Campaign) mapRegion(eng *traceroute.Engine, tag string, vps []netip.Addr, boots []netip.Addr, lspgws []netip.Addr, edgePrefixes []netip.Prefix, stats *probesched.ProbeStats) *RegionMap {
	rm := &RegionMap{
		Tag:              tag,
		RouterOf:         map[netip.Addr]netip.Addr{},
		Roles:            map[netip.Addr]RouterRole{},
		Links:            map[[2]netip.Addr]bool{},
		LspgwEdgeRouters: map[netip.Addr][]netip.Addr{},
	}
	isLspgw := map[netip.Addr]bool{}
	for _, l := range lspgws {
		isLspgw[l] = true
	}
	inEdge24 := func(a netip.Addr) bool {
		for _, pfx := range edgePrefixes {
			if pfx.Contains(a) {
				return true
			}
		}
		return false
	}

	// Collect traces: intra-region to every gateway, intra- and
	// inter-region DPR to every address of the discovered router /24s
	// (inter-region DPR is what exposes the backbone-to-agg links).
	// Each wave fans out over the probe scheduler and folds back in
	// submission order; the second wave must wait on the first because
	// its targets are hops the first wave observed.
	pool := probesched.New(c.Parallelism, c.Clock)
	var jobs []probesched.Request
	add := func(src, dst netip.Addr) {
		jobs = append(jobs, probesched.Request{Src: src, Dst: dst})
	}
	var traces []traceroute.Trace
	flush := func() {
		batch := eng.Traces(pool, jobs)
		for i := range batch {
			stats.Add(batch[i].Stats())
		}
		traces = append(traces, batch...)
		jobs = jobs[:0]
	}

	for i, dst := range lspgws {
		for k := 0; k < 3 && k < len(vps); k++ {
			add(vps[(i+k*5)%len(vps)], dst)
		}
	}
	sweep := func(srcs []netip.Addr, nSrc int) {
		for _, pfx := range edgePrefixes {
			for a := pfx.Addr().Next(); pfx.Contains(a); a = a.Next() {
				for k := 0; k < nSrc && k < len(srcs); k++ {
					add(srcs[(int(a.As4()[3])+k*7)%len(srcs)], a)
				}
			}
		}
	}
	sweep(vps, 2)
	sweep(boots, 2)
	flush()

	// Second DPR wave: unnamed addresses observed outside the known
	// /24s are candidate aggregation-router interfaces; targeting them
	// directly confirms their interconnections (Table 5).
	// The candidate scan shards the first-wave traces across the pool's
	// workers (per-shard address sets merged by union — the final list
	// is sorted, so shard order cannot matter).
	already := len(traces)
	candidateSet := probesched.Reduce(pool, already,
		func() map[netip.Addr]bool { return map[netip.Addr]bool{} },
		func(set map[netip.Addr]bool, i int) map[netip.Addr]bool {
			for _, h := range traces[i].ResponsiveHops() {
				a := h.Addr
				if isLspgw[a] || inEdge24(a) || set[a] {
					continue
				}
				if _, named := c.DNS.Name(a); named {
					continue
				}
				set[a] = true
			}
			return set
		},
		func(into, from map[netip.Addr]bool) map[netip.Addr]bool {
			for a := range from {
				into[a] = true
			}
			return into
		})
	var candidates []netip.Addr
	for a := range candidateSet {
		candidates = append(candidates, a)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Less(candidates[j]) })
	for i, a := range candidates {
		for k := 0; k < 2 && k < len(vps); k++ {
			add(vps[(i+k*3)%len(vps)], a)
		}
		for k := 0; k < 2 && k < len(boots); k++ {
			add(boots[(i+k*5)%len(boots)], a)
		}
	}
	flush()

	// In-region address set: seed with the gateway addresses, the
	// router /24s, and this region's backbone interfaces; expand once
	// to pull in the unnamed aggregation addresses adjacent to seeds.
	seed := func(a netip.Addr) bool {
		if isLspgw[a] || inEdge24(a) {
			return true
		}
		if name, ok := c.DNS.Name(a); ok {
			info, ok := hostnames.Parse(name)
			return ok && info.ISP == c.ISP && info.Backbone && info.CO == tag
		}
		return false
	}
	// Sharded like the candidate scan: inRegion is a pure set union over
	// per-trace contributions, so the merge order is immaterial.
	inRegion := probesched.Reduce(pool, len(traces),
		func() map[netip.Addr]bool { return map[netip.Addr]bool{} },
		func(set map[netip.Addr]bool, ti int) map[netip.Addr]bool {
			hops := traces[ti].ResponsiveHops()
			for i, h := range hops {
				if !seed(h.Addr) {
					continue
				}
				set[h.Addr] = true
				// Unnamed neighbors of seeds belong to the region.
				for _, j := range []int{i - 1, i + 1} {
					if j < 0 || j >= len(hops) {
						continue
					}
					n := hops[j]
					if absDiff(n.TTL, h.TTL) != 1 {
						continue
					}
					if _, named := c.DNS.Name(n.Addr); !named && !isLspgw[n.Addr] {
						set[n.Addr] = true
					}
				}
			}
			return set
		},
		func(into, from map[netip.Addr]bool) map[netip.Addr]bool {
			for a := range from {
				into[a] = true
			}
			return into
		})

	// Adjacencies and last-mile clustering signals, restricted to the
	// in-region set.
	// Sharded with contiguous-shard concatenation: adjs comes back in
	// trace order (every downstream consumer is a set insert anyway),
	// and lspgwPrev merges as a union of per-shard sets.
	type adj struct{ a, b netip.Addr }
	type adjAcc struct {
		adjs      []adj
		lspgwPrev map[netip.Addr]map[netip.Addr]bool
	}
	adjRes := probesched.Reduce(pool, len(traces),
		func() adjAcc { return adjAcc{lspgwPrev: map[netip.Addr]map[netip.Addr]bool{}} },
		func(a adjAcc, ti int) adjAcc {
			hops := traces[ti].ResponsiveHops()
			for i := 1; i < len(hops); i++ {
				prev, h := hops[i-1], hops[i]
				if h.TTL != prev.TTL+1 {
					continue
				}
				if !inRegion[prev.Addr] || !inRegion[h.Addr] {
					continue
				}
				a.adjs = append(a.adjs, adj{prev.Addr, h.Addr})
				if isLspgw[h.Addr] && !isLspgw[prev.Addr] {
					if a.lspgwPrev[h.Addr] == nil {
						a.lspgwPrev[h.Addr] = map[netip.Addr]bool{}
					}
					a.lspgwPrev[h.Addr][prev.Addr] = true
				}
			}
			return a
		},
		func(into, from adjAcc) adjAcc {
			into.adjs = append(into.adjs, from.adjs...)
			for l, prevs := range from.lspgwPrev {
				if into.lspgwPrev[l] == nil {
					into.lspgwPrev[l] = prevs
					continue
				}
				for p := range prevs {
					into.lspgwPrev[l][p] = true
				}
			}
			return into
		})
	adjs, lspgwPrev := adjRes.adjs, adjRes.lspgwPrev

	// Alias resolution from an internal VP over the region's router
	// addresses.
	var aliasTargets []netip.Addr
	for a := range inRegion {
		if !isLspgw[a] {
			aliasTargets = append(aliasTargets, a)
		}
	}
	sort.Slice(aliasTargets, func(i, j int) bool { return aliasTargets[i].Less(aliasTargets[j]) })
	resolver := &alias.Resolver{Net: c.Net, Clock: c.Clock, VP: vps[0], Parallelism: c.Parallelism, Stats: stats}
	groups := resolver.Resolve(aliasTargets)
	// A target's router is its alias group's smallest address; a target
	// in no multi-member group is its own router.
	rep := map[netip.Addr]netip.Addr{}
	for _, g := range groups.Groups() {
		for _, a := range g {
			rep[a] = g[0]
		}
	}
	for _, a := range aliasTargets {
		if r, ok := rep[a]; ok {
			rm.RouterOf[a] = r
		} else {
			rm.RouterOf[a] = a
		}
	}
	router := func(a netip.Addr) netip.Addr {
		if r, ok := rm.RouterOf[a]; ok {
			return r
		}
		rm.RouterOf[a] = a
		return a
	}

	// Edge routers: one hop from a last-mile link.
	edgeRouters := map[netip.Addr]bool{}
	for l, prevs := range lspgwPrev {
		for p := range prevs {
			r := router(p)
			edgeRouters[r] = true
			rm.LspgwEdgeRouters[l] = append(rm.LspgwEdgeRouters[l], r)
		}
	}
	for l, rs := range rm.LspgwEdgeRouters {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Less(rs[j]) })
		rm.LspgwEdgeRouters[l] = dedupAddrs(rs)
	}

	// Role classification per router group: operator backbone rDNS wins;
	// then last-mile adjacency or membership in a discovered edge /24
	// marks edge routers (the Table 6 distinction); the remaining
	// unnamed in-region routers form the aggregation layer.
	for a := range inRegion {
		if isLspgw[a] {
			continue
		}
		r := router(a)
		switch {
		case c.isBackboneAddr(a):
			rm.Roles[r] = RoleBackbone
		case rm.Roles[r] == RoleBackbone:
			// keep
		case edgeRouters[r] || inEdge24(a):
			rm.Roles[r] = RoleEdge
		case rm.Roles[r] == RoleEdge:
			// keep
		default:
			rm.Roles[r] = RoleAgg
		}
	}

	// Router-level links.
	for _, ad := range adjs {
		if isLspgw[ad.a] || isLspgw[ad.b] {
			continue
		}
		ra, rb := router(ad.a), router(ad.b)
		if ra != rb {
			rm.Links[linkKey(ra, rb)] = true
		}
	}

	// EdgeCO clustering: routers one hop from the same last-mile link
	// share an office.
	parent := map[netip.Addr]netip.Addr{}
	var find func(netip.Addr) netip.Addr
	find = func(x netip.Addr) netip.Addr {
		if p, ok := parent[x]; ok && p != x {
			root := find(p)
			parent[x] = root
			return root
		}
		parent[x] = x
		return x
	}
	for _, rs := range rm.LspgwEdgeRouters {
		for i := 1; i < len(rs); i++ {
			ra, rb := find(rs[0]), find(rs[i])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	clusters := map[netip.Addr][]netip.Addr{}
	for r := range edgeRouters {
		root := find(r)
		clusters[root] = append(clusters[root], r)
	}
	for _, members := range clusters {
		sort.Slice(members, func(i, j int) bool { return members[i].Less(members[j]) })
		rm.EdgeCOs = append(rm.EdgeCOs, members)
	}
	sort.Slice(rm.EdgeCOs, func(i, j int) bool { return rm.EdgeCOs[i][0].Less(rm.EdgeCOs[j][0]) })

	// Prefix inventory (Table 6).
	edgeSet, aggSet := map[netip.Prefix]bool{}, map[netip.Prefix]bool{}
	for a := range inRegion {
		if isLspgw[a] || !a.Is4() {
			continue
		}
		pfx := netip.PrefixFrom(a, 24).Masked()
		switch rm.Roles[router(a)] {
		case RoleEdge:
			edgeSet[pfx] = true
		case RoleAgg:
			aggSet[pfx] = true
		}
	}
	for pfx := range edgeSet {
		rm.EdgePrefixes = append(rm.EdgePrefixes, pfx)
	}
	for pfx := range aggSet {
		if !edgeSet[pfx] {
			rm.AggPrefixes = append(rm.AggPrefixes, pfx)
		}
	}
	sort.Slice(rm.EdgePrefixes, func(i, j int) bool { return rm.EdgePrefixes[i].Addr().Less(rm.EdgePrefixes[j].Addr()) })
	sort.Slice(rm.AggPrefixes, func(i, j int) bool { return rm.AggPrefixes[i].Addr().Less(rm.AggPrefixes[j].Addr()) })
	return rm
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// isBackboneAddr reports whether an address carries operator backbone
// rDNS.
func (c *Campaign) isBackboneAddr(a netip.Addr) bool {
	name, ok := c.DNS.Name(a)
	if !ok {
		return false
	}
	info, ok := hostnames.Parse(name)
	return ok && info.ISP == c.ISP && info.Backbone
}

func dedupAddrs(sorted []netip.Addr) []netip.Addr {
	out := sorted[:0]
	for i, a := range sorted {
		if i == 0 || a != sorted[i-1] {
			out = append(out, a)
		}
	}
	return out
}
