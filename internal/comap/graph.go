package comap

import (
	"math"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/probesched"
	"repro/internal/symtab"
)

// Inference is the Phase 2 output: one inferred graph per regional
// network plus the pruning and mapping accounting.
type Inference struct {
	Regions map[string]*RegionGraph
	Prune   PruneStats
	Map     MappingStats
	P2PBits int
}

// regionOf splits a CO key into its region tag; backbone keys return
// ("", false).
func regionOf(key string) (string, bool) {
	if isBackboneKey(key) {
		return "", false
	}
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return "", false
	}
	return key[:i], true
}

// BuildGraphsParallel runs Phase 2 of the pipeline (§5.2): extract CO
// adjacencies, prune noise, identify AggCOs, repair the ring/star
// structure, and infer entry points. The adjacency-record pass and the
// entry-inference path scan are sharded across workers (0 selects
// GOMAXPROCS) as shard-accumulate-merge passes: contiguous path shards
// accumulate private IP-adjacency and CO-path maps, merged in shard
// order. The merged maps are identical at any worker count because
// every write is either a set insert or a same-key-same-value
// assignment (an IP adjacency's CO pair depends only on the frozen
// mapping, not on which shard records it), so the output graphs are
// byte-identical to the sequential build.
func BuildGraphsParallel(col *Collection, m *Mapping, workers int) *Inference {
	pool := probesched.New(workers, nil)
	inf := &Inference{
		Regions: map[string]*RegionGraph{},
		Map:     m.Stats,
		P2PBits: m.P2PBits,
	}

	// Per-symbol classification, computed once over the CO-key universe
	// so the sharded passes below never touch a string: the region tag is
	// interned into the mapping's own table (appending beyond nCO, which
	// the fixed loop bound ignores) and backbone-ness is precomputed.
	nCO := m.Syms.Len()
	infos := make([]symInfo, nCO)
	for s := 0; s < nCO; s++ {
		key := m.Syms.Str(symtab.Sym(s))
		if r, ok := regionOf(key); ok {
			infos[s] = symInfo{region: m.Syms.Intern(r), hasRegion: true}
		} else {
			infos[s] = symInfo{backbone: isBackboneKey(key)}
		}
	}

	// Collect IP adjacencies where both addresses carry CO mappings,
	// counting the distinct paths supporting each CO adjacency. Pairs
	// are interned symbols (8 bytes), not strings; the string keys
	// reappear only at the RegionGraph boundary.
	//
	// Support is a running tally, not a path-index set: downstream only
	// ever consumes the count. Within a shard the accumulator sees a
	// pair's observations in nondecreasing path order, so counting pi
	// transitions counts distinct paths; shards (and spill windows)
	// cover ascending disjoint index ranges, so merged counts sum
	// exactly. The per-pair set this replaces was the single largest
	// allocation of the inference half at campaign scale.
	type coPair = [2]symtab.Sym
	type pathTally struct {
		count  int
		lastPi int
	}
	type recordAcc struct {
		ipAdjs  map[[2]netip.Addr]coPair
		coPaths map[coPair]pathTally
	}
	rec := foldPaths(pool, col,
		func() recordAcc {
			return recordAcc{
				ipAdjs:  map[[2]netip.Addr]coPair{},
				coPaths: map[coPair]pathTally{},
			}
		},
		func(acc recordAcc, pi int, p Path, _ string) recordAcc {
			for i := 1; i < len(p.Hops); i++ {
				if p.Gaps[i] {
					continue
				}
				x, y := p.Hops[i-1], p.Hops[i]
				cox, okx := m.COSym[x]
				coy, oky := m.COSym[y]
				if !okx || !oky || cox == coy {
					continue
				}
				pair := coPair{cox, coy}
				acc.ipAdjs[[2]netip.Addr{x, y}] = pair
				if t, ok := acc.coPaths[pair]; !ok || t.lastPi != pi {
					t.count++
					t.lastPi = pi
					acc.coPaths[pair] = t
				}
			}
			return acc
		},
		func(into, from recordAcc) recordAcc {
			for k, v := range from.ipAdjs {
				into.ipAdjs[k] = v
			}
			for pair, t := range from.coPaths {
				it := into.coPaths[pair]
				it.count += t.count
				it.lastPi = t.lastPi
				into.coPaths[pair] = it
			}
			return into
		})
	ipAdjs, coPaths := rec.ipAdjs, rec.coPaths
	inf.Prune.InitialIPAdjs = len(ipAdjs)
	inf.Prune.InitialCOAdjs = len(coPaths)

	// Remove MPLS tunnel entry/exit artifacts (Appendix B.2). A CO
	// adjacency falls when some supporting IP pair was shown to be a
	// tunnel artifact and no supporting IP pair was confirmed as a
	// physical link by the targeted traceroutes.
	anyFalse := map[coPair]bool{}
	anyDirect := map[coPair]bool{}
	for ipPair, pair := range ipAdjs {
		if col.FalsePairs[ipPair] {
			anyFalse[pair] = true
			inf.Prune.MPLSIPAdjs++
			delete(ipAdjs, ipPair)
		} else if col.DirectPairs[ipPair] {
			anyDirect[pair] = true
		}
	}
	support := map[coPair]int{}
	for _, pair := range ipAdjs {
		support[pair]++
	}
	for pair := range coPaths {
		if anyFalse[pair] && !anyDirect[pair] || support[pair] == 0 {
			inf.Prune.MPLSCOAdjs++
			delete(coPaths, pair)
		}
	}

	// Classify and prune: backbone adjacencies feed entry inference;
	// cross-region adjacencies are mostly stale-rDNS artifacts (real
	// inter-region entries are re-added by §5.2.5 with stronger
	// evidence); single-observation adjacencies are traceroute noise.
	for pair, tally := range coPaths {
		ix, iy := infos[pair[0]], infos[pair[1]]
		switch {
		case !ix.hasRegion || !iy.hasRegion:
			inf.Prune.BackboneCOAdjs++
			inf.Prune.BackboneIPAdjs += support[pair]
			delete(coPaths, pair)
		case ix.region != iy.region:
			inf.Prune.CrossRegionCOAdjs++
			inf.Prune.CrossRegionIPAdjs += support[pair]
			delete(coPaths, pair)
		case tally.count < 2:
			inf.Prune.SingleCOAdjs++
			inf.Prune.SingleIPAdjs += support[pair]
			delete(coPaths, pair)
		}
	}

	// Build per-region graphs from the surviving adjacencies, converting
	// the interned pairs back to strings at this boundary.
	for pair, tally := range coPaths {
		region := m.Syms.Str(infos[pair[0]].region)
		g := inf.Regions[region]
		if g == nil {
			g = &RegionGraph{Region: region, COs: map[string]*CONode{}, Edges: map[[2]string]int{}}
			inf.Regions[region] = g
		}
		spair := [2]string{m.Syms.Str(pair[0]), m.Syms.Str(pair[1])}
		g.Edges[spair] = tally.count
		for _, key := range spair {
			if g.COs[key] == nil {
				g.COs[key] = &CONode{Key: key, Tag: key[strings.IndexByte(key, '/')+1:]}
			}
		}
	}
	// Attach mapped addresses to CO nodes.
	for a, key := range m.CO {
		region, ok := regionOf(key)
		if !ok {
			continue
		}
		if g := inf.Regions[region]; g != nil {
			if n := g.COs[key]; n != nil {
				n.Addrs = append(n.Addrs, a)
			}
		}
	}
	// The attach loop above walks a map, so sort each node's address
	// list; consumers index Addrs[0] as the node's representative.
	for _, g := range inf.Regions {
		for _, n := range g.COs {
			sort.Slice(n.Addrs, func(i, j int) bool { return n.Addrs[i].Less(n.Addrs[j]) })
		}
	}

	for _, g := range inf.Regions {
		identifyAggCOs(g)
		removeEdgeEdgeEdges(g)
		identifyAggCOs(g) // re-run on the cleaned graph
		pairAggCOsAndComplete(g)
	}
	inferEntries(pool, col, m, infos, inf)
	return inf
}

// symInfo is the per-CO-symbol classification BuildGraphsParallel
// precomputes: the interned region tag (when the key is region-qualified)
// and whether the key is a backbone key.
type symInfo struct {
	region    symtab.Sym
	hasRegion bool
	backbone  bool
}

// identifyAggCOs classifies COs whose out-degree exceeds the regional
// mean plus one standard deviation (§5.2.2).
func identifyAggCOs(g *RegionGraph) {
	if len(g.COs) == 0 {
		return
	}
	var sum, sumSq float64
	for key := range g.COs {
		d := float64(g.OutDegree(key))
		sum += d
		sumSq += d * d
	}
	n := float64(len(g.COs))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	thresh := mean + std
	for key, node := range g.COs {
		node.IsAgg = float64(g.OutDegree(key)) > thresh && g.OutDegree(key) >= 2
	}
}

// removeEdgeEdgeEdges drops EdgeCO-to-EdgeCO edges (stale-rDNS
// artifacts) unless the source CO aggregates several EdgeCOs that have
// no AggCO connectivity of their own — a small AggCO (§B.3).
func removeEdgeEdgeEdges(g *RegionGraph) {
	agg := map[string]bool{}
	for key, node := range g.COs {
		agg[key] = node.IsAgg
	}
	// hasAggLink reports whether a CO interconnects with any AggCO.
	hasAggLink := func(key string) bool {
		for e := range g.Edges {
			if e[0] == key && agg[e[1]] || e[1] == key && agg[e[0]] {
				return true
			}
		}
		return false
	}
	// Walk the edges in sorted order: each deletion feeds back into the
	// dependents and hasAggLink tests for later edges, so iterating the
	// map directly would let Go's randomized order pick which of two
	// mutually-dependent edge-edge edges survives.
	edges := make([][2]string, 0, len(g.Edges))
	for e := range g.Edges {
		edges = append(edges, e)
	}
	sortPairs(edges)
	for _, e := range edges {
		x, y := e[0], e[1]
		if agg[x] || agg[y] {
			continue
		}
		// Count x's outgoing edges to unaggregated EdgeCOs.
		dependents := 0
		for e2 := range g.Edges {
			if e2[0] != x || agg[e2[1]] {
				continue
			}
			if !hasAggLink(e2[1]) {
				dependents++
			}
		}
		if dependents >= 2 {
			continue // x functions as a small AggCO
		}
		delete(g.Edges, e)
		g.EdgesRemovedEdgeEdge++
	}
	// Drop COs that lost every edge.
	for key := range g.COs {
		if g.OutDegree(key) == 0 && g.InDegree(key) == 0 {
			delete(g.COs, key)
		}
	}
}

// pairAggCOsAndComplete groups AggCOs that serve nearly the same EdgeCO
// sets (they terminate the same fiber rings) and adds the missing
// AggCO-to-EdgeCO edges implied by ring membership (§5.2.4, B.3).
func pairAggCOsAndComplete(g *RegionGraph) {
	// EdgeCO sets per AggCO (only edges toward non-Agg COs).
	down := map[string]map[string]bool{}
	var aggs []string
	for key, node := range g.COs {
		if !node.IsAgg {
			continue
		}
		aggs = append(aggs, key)
		down[key] = map[string]bool{}
		for e := range g.Edges {
			if e[0] == key && g.COs[e[1]] != nil && !g.COs[e[1]].IsAgg {
				down[key][e[1]] = true
			}
		}
	}
	sortStrings(aggs)

	overlap := func(x, y string) int {
		n := 0
		for k := range down[x] {
			if down[y][k] {
				n++
			}
		}
		return n
	}
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	union := func(x, y string) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[ry] = rx
		}
	}
	paired := map[string]bool{}
	for i, x := range aggs {
		for _, y := range aggs[i+1:] {
			nx, ny := len(down[x]), len(down[y])
			if nx == 0 || ny == 0 {
				continue
			}
			ov := overlap(x, y)
			if float64(ov) >= 0.75*float64(nx) && float64(ov) >= 0.5*float64(ny) ||
				float64(ov) >= 0.75*float64(ny) && float64(ov) >= 0.5*float64(nx) {
				union(x, y)
				paired[x], paired[y] = true, true
			}
		}
	}
	// Second chance: 3/4 overlap one-way when neither is paired yet.
	for i, x := range aggs {
		for _, y := range aggs[i+1:] {
			if paired[x] || paired[y] || len(down[x]) == 0 || len(down[y]) == 0 {
				continue
			}
			ov := overlap(x, y)
			if float64(ov) >= 0.75*float64(len(down[x])) || float64(ov) >= 0.75*float64(len(down[y])) {
				union(x, y)
				paired[x], paired[y] = true, true
			}
		}
	}

	groups := map[string][]string{}
	for _, a := range aggs {
		root := find(a)
		groups[root] = append(groups[root], a)
	}
	for _, members := range groups {
		sortStrings(members)
		g.AggGroups = append(g.AggGroups, members)
		if len(members) < 2 {
			continue
		}
		// Ring completion: every member connects to the union of the
		// group's EdgeCOs.
		all := map[string]bool{}
		for _, a := range members {
			for e := range down[a] {
				all[e] = true
			}
		}
		for _, a := range members {
			for e := range all {
				pair := [2]string{a, e}
				if g.Edges[pair] == 0 {
					g.Edges[pair] = 1 // inferred, not observed
					g.EdgesAddedRing++
				}
			}
		}
	}
	// Deterministic group order.
	sortGroups(g.AggGroups)
}

func sortGroups(groups [][]string) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j-1][0] > groups[j][0]; j-- {
			groups[j-1], groups[j] = groups[j], groups[j-1]
		}
	}
}

// inferEntries re-adds region entry points with the strong-evidence rule
// of §5.2.5: a triplet (co_i, r1) -> (co_j, r2) -> (co_k, r2) marks co_i
// as a candidate entry into r2, kept only when it demonstrably leads to
// two or more COs of the region.
func inferEntries(pool *probesched.Pool, col *Collection, m *Mapping, infos []symInfo, inf *Inference) {
	type entryKey struct {
		from   symtab.Sym
		region symtab.Sym
	}
	// pc is one CO along a projected path. The region is carried as an
	// interned symbol plus a presence bit: hasRegion stands in for the
	// string code's region != "" tests, so backbone COs (no region) never
	// compare equal to each other through a shared zero value.
	type pc struct {
		co        symtab.Sym
		region    symtab.Sym
		hasRegion bool
		gapped    bool
	}
	// The triplet scan shards the paths across workers; firstCOs and
	// reached are per-(entry, CO) set inserts, so the shard-order union
	// equals the sequential scan. Each shard keeps one reusable cos
	// scratch — per-path append growth was the single largest allocation
	// site in the whole inference after the mapping passes were interned.
	type entryAcc struct {
		firstCOs map[entryKey]map[symtab.Sym]bool
		reached  map[entryKey]map[symtab.Sym]bool
		cos      []pc
	}
	mergeSets := func(into, from map[entryKey]map[symtab.Sym]bool) {
		for k, set := range from {
			if into[k] == nil {
				into[k] = set
				continue
			}
			for co := range set {
				into[k][co] = true
			}
		}
	}
	acc := foldPaths(pool, col,
		func() entryAcc {
			return entryAcc{
				firstCOs: map[entryKey]map[symtab.Sym]bool{},
				reached:  map[entryKey]map[symtab.Sym]bool{},
			}
		},
		func(acc entryAcc, _ int, p Path, _ string) entryAcc {
			// Project the path onto mapped COs, collapsing repeats and
			// respecting gaps.
			cos := acc.cos[:0]
			for i, h := range p.Hops {
				co, ok := m.COSym[h]
				if !ok {
					continue
				}
				if len(cos) > 0 && cos[len(cos)-1].co == co {
					continue
				}
				si := infos[co]
				cos = append(cos, pc{co: co, region: si.region, hasRegion: si.hasRegion, gapped: p.Gaps[i]})
			}
			acc.cos = cos
			for i := 0; i+2 < len(cos); i++ {
				a, b, c := cos[i], cos[i+1], cos[i+2]
				if b.gapped || c.gapped {
					continue
				}
				if !b.hasRegion || !(c.hasRegion && b.region == c.region) ||
					(a.hasRegion && a.region == b.region) {
					continue
				}
				k := entryKey{from: a.co, region: b.region}
				if acc.firstCOs[k] == nil {
					acc.firstCOs[k] = map[symtab.Sym]bool{}
					acc.reached[k] = map[symtab.Sym]bool{}
				}
				acc.firstCOs[k][b.co] = true
				// Every subsequent CO in the same region strengthens the
				// evidence.
				for _, later := range cos[i+1:] {
					if later.hasRegion && later.region == b.region {
						acc.reached[k][later.co] = true
					}
				}
			}
			return acc
		},
		func(into, from entryAcc) entryAcc {
			mergeSets(into.firstCOs, from.firstCOs)
			mergeSets(into.reached, from.reached)
			return into
		})
	firstCOs, reached := acc.firstCOs, acc.reached
	for k, rs := range reached {
		// The paper requires an entry to lead to two or more COs of the
		// region; we additionally require three for inter-region
		// (non-backbone) entries, which stale rDNS fabricates more
		// easily than backbone entries.
		need := 2
		if !infos[k.from].backbone {
			need = 3
		}
		if len(rs) < need {
			continue
		}
		g := inf.Regions[m.Syms.Str(k.region)]
		if g == nil {
			continue
		}
		var first []string
		for co := range firstCOs[k] {
			s := m.Syms.Str(co)
			if g.COs[s] != nil {
				first = append(first, s)
			}
		}
		if len(first) == 0 {
			continue
		}
		sortStrings(first)
		g.Entries = append(g.Entries, Entry{From: m.Syms.Str(k.from), FirstCOs: first})
	}
	for _, g := range inf.Regions {
		sortEntries(g.Entries)
	}
}

func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j-1].From > es[j].From; j-- {
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
}
