package comap

import (
	"net/netip"

	"repro/internal/dnsdb"
	"repro/internal/hostnames"
	"repro/internal/probesched"
	"repro/internal/symtab"
)

// Mapping is the Phase 1 result: every relevant address mapped to a CO
// key, with the refinement accounting of paper Table 3.
//
// The mapping is built on interned CO-key symbols (Syms/COSym) — every
// vote, census, and graph pass compares 4-byte Syms instead of strings
// — and the string-keyed views (CO, Backbone) are materialized once at
// the end, so everything digest-visible is byte-identical to the
// string-keyed implementation.
type Mapping struct {
	// CO maps interface addresses to region-qualified CO keys.
	CO map[netip.Addr]string
	// Backbone marks addresses mapped to operator backbone PoPs.
	Backbone map[netip.Addr]bool
	// NameOf records the hostname used for each mapped address.
	NameOf map[netip.Addr]string
	// P2PBits is the operator's inferred point-to-point subnet size.
	P2PBits int
	Stats   MappingStats

	// Syms interns every distinct CO key, in the canonical first-seen
	// order of the address-sharded rDNS sweep (shard tables merge in
	// shard order, so IDs are worker-invariant; see internal/symtab).
	// Phase 2 additionally interns region tags into the same table.
	Syms *symtab.Table
	// COSym is the interned form of CO: COSym[a] == Syms.Intern(CO[a]).
	COSym map[netip.Addr]symtab.Sym
}

// backboneSym reports whether an interned CO key is a backbone key.
func (m *Mapping) backboneSym(s symtab.Sym) bool {
	return isBackboneKey(m.Syms.Str(s))
}

// BuildMappingParallel runs Appendix B.1: initial rDNS mapping (dig
// priority), alias-group majority remapping, and point-to-point-subnet
// refinement, with the rDNS sweep, the p2p-bit census, and the
// mate-vote scan sharded across workers (0 selects GOMAXPROCS). The output is byte-identical at any worker count: every
// sharded pass accumulates into per-shard sets or same-key-same-value
// maps whose union is independent of shard boundaries, and every
// order-sensitive step (majority votes, stats, final application) runs
// on the merged result exactly as the sequential code did.
func BuildMappingParallel(col *Collection, dns *dnsdb.DB, isp string, workers int) *Mapping {
	pool := probesched.New(workers, nil)
	m := &Mapping{}

	// The universe of addresses worth mapping: everything observed in
	// traceroutes, every scan target, and every alias target (which
	// includes /30 neighbors).
	universe := map[netip.Addr]bool{}
	for a := range col.Observed {
		universe[a] = true
	}
	for _, a := range col.ScanTargets {
		universe[a] = true
	}
	for _, a := range col.AliasTargets {
		universe[a] = true
	}

	// Initial mapping from reverse DNS, preferring live records. The
	// sweep shards the universe across workers; each address's verdict
	// depends only on the (read-only) DNS layers, so the per-shard maps
	// have disjoint keys and their union is order-independent.
	addrs := make([]netip.Addr, 0, len(universe))
	for a := range universe {
		addrs = append(addrs, a)
	}
	// Each shard interns CO keys into a private table; merging the shard
	// tables in shard order reproduces the sequential first-seen symbol
	// assignment (symtab's determinism property), and the per-address
	// verdicts remap through the merge's translation table.
	type rdnsAcc struct {
		syms   *symtab.Table
		co     map[netip.Addr]symtab.Sym
		nameOf map[netip.Addr]string
	}
	rdns := probesched.Reduce(pool, len(addrs),
		func() rdnsAcc {
			return rdnsAcc{
				syms:   symtab.New(0),
				co:     map[netip.Addr]symtab.Sym{},
				nameOf: map[netip.Addr]string{},
			}
		},
		func(acc rdnsAcc, i int) rdnsAcc {
			a := addrs[i]
			name, ok := dns.Name(a)
			if !ok {
				return acc
			}
			info, key, ok := hostnames.ParseWithKey(name)
			if !ok || info.ISP != isp {
				return acc
			}
			if key == "" || info.Role == hostnames.RoleLastMile {
				return acc
			}
			acc.co[a] = acc.syms.Intern(key)
			acc.nameOf[a] = name
			return acc
		},
		func(into, from rdnsAcc) rdnsAcc {
			remap := into.syms.Merge(from.syms)
			for a, s := range from.co {
				into.co[a] = remap[s]
				into.nameOf[a] = from.nameOf[a]
			}
			return into
		})
	m.Syms, m.COSym, m.NameOf = rdns.syms, rdns.co, rdns.nameOf
	m.Stats.Initial = len(m.COSym)

	// Alias-group majority vote (paper: "we remap all addresses in the
	// group to that CO"; ties remove the group's mappings).
	if col.Aliases != nil {
		votes := map[symtab.Sym]int{}
		for _, group := range col.Aliases.Groups() {
			for s := range votes {
				delete(votes, s)
			}
			for _, a := range group {
				if co, ok := m.COSym[a]; ok {
					votes[co]++
				}
			}
			if len(votes) == 0 {
				continue
			}
			top, tied := majoritySym(m.Syms, votes)
			if tied {
				for _, a := range group {
					if _, ok := m.COSym[a]; ok {
						delete(m.COSym, a)
						m.Stats.AliasRemoved++
					}
				}
				continue
			}
			for _, a := range group {
				cur, ok := m.COSym[a]
				switch {
				case !ok:
					m.COSym[a] = top
					m.Stats.AliasAdded++
				case cur != top:
					m.COSym[a] = top
					m.Stats.AliasChanged++
				}
			}
		}
	}

	// Infer the operator's point-to-point subnet convention from the
	// addresses in the traceroutes.
	m.P2PBits = inferP2PBits(pool, col, m)

	// Point-to-point-subnet refinement (Fig. 19): for each observed
	// adjacency x -> y, the other address of y's subnet most likely
	// belongs to the same router as x; vote on x's CO accordingly.
	// Each distinct mate contributes one vote regardless of how many
	// paths crossed the link (Fig. 19 counts addresses, not packets),
	// so one stale mate on a busy link cannot outvote the fresh ones.
	// The scan shards the paths across workers, accumulating the SET of
	// distinct (x, mate) pairs (union across shards restores the
	// sequential dedup); votes are then counted off the merged set, so a
	// pair straddling two shards still contributes exactly one vote.
	seenMate := foldPaths(pool, col,
		func() map[[2]netip.Addr]bool { return map[[2]netip.Addr]bool{} },
		func(set map[[2]netip.Addr]bool, _ int, p Path, _ string) map[[2]netip.Addr]bool {
			for i := 1; i < len(p.Hops); i++ {
				if p.Gaps[i] {
					continue
				}
				x, y := p.Hops[i-1], p.Hops[i]
				mate, ok := p2pMate(y, m.P2PBits)
				if !ok || mate == x {
					// When the mate is x itself the link is already
					// self-evident; no extra information.
					continue
				}
				set[[2]netip.Addr{x, mate}] = true
			}
			return set
		},
		func(into, from map[[2]netip.Addr]bool) map[[2]netip.Addr]bool {
			for k := range from {
				into[k] = true
			}
			return into
		})
	mateVotes := map[netip.Addr]map[symtab.Sym]int{}
	for pair := range seenMate {
		x, mate := pair[0], pair[1]
		co, ok := m.COSym[mate]
		if !ok {
			continue
		}
		if mateVotes[x] == nil {
			mateVotes[x] = map[symtab.Sym]int{}
		}
		mateVotes[x][co]++
	}
	for x, votes := range mateVotes {
		cur, has := m.COSym[x]
		if has {
			votes[cur]++ // the existing mapping counts as one vote
		}
		top, tied := majoritySym(m.Syms, votes)
		if tied {
			continue
		}
		switch {
		case !has:
			m.COSym[x] = top
			m.Stats.SubnetAdded++
		case top != cur:
			m.COSym[x] = top
			m.Stats.SubnetChanged++
		}
	}

	// Materialize the string-keyed views once; everything before this
	// point compared interned symbols only.
	m.CO = make(map[netip.Addr]string, len(m.COSym))
	m.Backbone = make(map[netip.Addr]bool, len(m.COSym))
	for a, s := range m.COSym {
		key := m.Syms.Str(s)
		m.CO[a] = key
		m.Backbone[a] = isBackboneKey(key)
	}
	m.Stats.Final = len(m.CO)
	return m
}

// majority returns the key with the strictly highest count; tied is true
// when two keys share the maximum.
func majority(votes map[string]int) (string, bool) {
	best, bestN, tied := "", -1, false
	for k, n := range votes {
		switch {
		case n > bestN:
			best, bestN, tied = k, n, false
		case n == bestN:
			tied = true
			if k < best {
				best = k // deterministic representative
			}
		}
	}
	return best, tied
}

// majoritySym is majority over interned keys. The tie-break compares the
// interned strings (not the Sym IDs) so the deterministic representative
// is the same key the string-keyed implementation would pick.
func majoritySym(t *symtab.Table, votes map[symtab.Sym]int) (symtab.Sym, bool) {
	var best symtab.Sym
	bestN, tied := -1, false
	for s, n := range votes {
		switch {
		case n > bestN:
			best, bestN, tied = s, n, false
		case n == bestN:
			tied = true
			if t.Str(s) < t.Str(best) {
				best = s // deterministic representative
			}
		}
	}
	return best, tied
}

func isBackboneKey(key string) bool {
	return len(key) > 3 && key[:3] == "bb:"
}

// inferP2PBits recovers the operator's interconnect convention from the
// last-two-bit distribution of intermediate hop addresses: /30 subnets
// only ever expose offsets 1 and 2 (offsets 0 and 3 are the network and
// broadcast addresses), while /31 subnets use all four offsets evenly.
// Loopback-style canonical reply addresses add uniform noise, so the
// decision threshold sits well above it.
func inferP2PBits(pool *probesched.Pool, col *Collection, m *Mapping) int {
	// Sharded census: accumulate the set of distinct qualifying
	// addresses (union across shards = the sequential dedup), then count
	// last-two-bit offsets off the merged set.
	seen := foldPaths(pool, col,
		func() map[netip.Addr]bool { return map[netip.Addr]bool{} },
		func(set map[netip.Addr]bool, _ int, p Path, _ string) map[netip.Addr]bool {
			end := len(p.Hops)
			if p.Reached {
				end-- // the destination itself may be a host, not a router
			}
			for i := 0; i < end; i++ {
				h := p.Hops[i]
				if !h.Is4() || set[h] {
					continue
				}
				if _, ok := m.COSym[h]; !ok {
					continue // only the operator's own infrastructure counts
				}
				set[h] = true
			}
			return set
		},
		func(into, from map[netip.Addr]bool) map[netip.Addr]bool {
			for a := range from {
				into[a] = true
			}
			return into
		})
	var offsets [4]int
	for a := range seen {
		offsets[a.As4()[3]&3]++
	}
	total := offsets[0] + offsets[1] + offsets[2] + offsets[3]
	if total == 0 {
		return 30
	}
	fringe := float64(offsets[0]+offsets[3]) / float64(total)
	if fringe > 0.25 {
		return 31
	}
	return 30
}
