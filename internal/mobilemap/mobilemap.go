// Package mobilemap infers mobile-carrier topology from geo-tagged
// ShipTraceroute rounds (§7.2): which bit fields of the carrier's IPv6
// addresses encode the region, EdgeCO, and packet gateway; how many
// packet gateways serve each region (Tables 7 and 8); and which Fig. 17
// architecture the carrier uses.
//
// The analysis sees only what a real measurement would: user addresses,
// traceroute hops, OpenCellID-derived tower locations, and reverse DNS.
// It never touches the generator's profiles.
package mobilemap

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/dnsdb"
	"repro/internal/geo"
	"repro/internal/ipalloc"
	"repro/internal/probesched"
	"repro/internal/ship"
	"repro/internal/symtab"
)

// Level is one geographically-stable prefix level of the user address
// space: a prefix length whose value only changes when the phone moves.
type Level struct {
	PrefixLen int
	// Changes counts value transitions over the journey; DistinctValues
	// counts the values seen (the paper's "/40 prefix only changes 11
	// times" observations).
	Changes        int
	DistinctValues int
}

// Field is an inferred bit field.
type Field struct {
	Start int
	Len   int
}

func (f Field) String() string {
	if f.Len == 0 {
		return "none"
	}
	return fmt.Sprintf("bits %d-%d", f.Start, f.Start+f.Len-1)
}

// Arch mirrors the Fig. 17 classification.
type Arch uint8

const (
	// ArchUnknown means insufficient evidence.
	ArchUnknown Arch = iota
	// ArchSingleEdge is AT&T-like: one region level, own backbone.
	ArchSingleEdge
	// ArchMultiEdge is Verizon-like: hierarchical region levels sharing
	// backbone exits.
	ArchMultiEdge
	// ArchMultiBackbone is T-Mobile-like: no geographic user field and
	// several wholesale backbone providers.
	ArchMultiBackbone
)

func (a Arch) String() string {
	switch a {
	case ArchSingleEdge:
		return "single-edge"
	case ArchMultiEdge:
		return "multi-edge"
	case ArchMultiBackbone:
		return "multi-backbone"
	}
	return "unknown"
}

// Analysis is the inference output for one carrier.
type Analysis struct {
	// UserPrefixLen is the carrier-constant user prefix.
	UserPrefixLen int
	// GeoLevels are prefix levels stable at a fixed location but
	// changing across the country, shortest first.
	GeoLevels []Level
	// RegionField covers the bits between the carrier prefix and the
	// deepest geographic level; PGWField covers the bits that cycle on
	// re-registration at one location.
	RegionField Field
	PGWField    Field
	// RouterField is the infrastructure-address bit field that changes
	// in lockstep with the user region field.
	RouterBase  netip.Addr
	RouterField Field
	// PGWCounts maps each observed region value to its distinct PGW
	// field values (Tables 7 and 8). For carriers without a region
	// field the single key 0 holds the carrier-wide count.
	PGWCounts map[uint64]int
	// Providers are the distinct upstream networks observed right after
	// the carrier's infrastructure (rDNS-derived).
	Providers []string
	// Arch is the Fig. 17 classification.
	Arch Arch
}

// moveThresholdKm separates "stationary" re-registrations from actual
// movement; tower-location quantization stays well below it.
const moveThresholdKm = 40

// AnalyzeParallel infers the carrier structure from measurement
// rounds, with the per-nibble statistics sweep and the router-field
// candidate scan sharded across workers (0 selects GOMAXPROCS). Each nibble position and each candidate bit range is
// evaluated independently over the (read-only) rounds, and the merge
// walks shards in canonical order, so the analysis is byte-identical at
// any worker count.
func AnalyzeParallel(rounds []ship.Round, dns *dnsdb.DB, workers int) *Analysis {
	pool := probesched.New(workers, nil)
	a := &Analysis{PGWCounts: map[uint64]int{}}
	var ok []ship.Round
	for _, r := range rounds {
		if r.OK && r.UserAddr.IsValid() {
			ok = append(ok, r)
		}
	}
	if len(ok) < 4 {
		return a
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].At.Before(ok[j].At) })

	// Carrier prefix: the longest nibble-aligned prefix shared by every
	// user address.
	a.UserPrefixLen = commonPrefixLen(ok)

	// Per-nibble behaviour: for each 4-bit slice, count transitions and
	// how many happened without movement. Nibbles of a geographic field
	// change only when the phone moves; nibbles of the PGW field cycle
	// across re-registrations at one location; untouched plan bits stay
	// constant.
	type stats struct {
		changes, stationary, distinct int
	}
	type nibbleAcc struct {
		nibble map[int]stats // keyed by nibble start bit
		prefix map[int]stats // keyed by prefix length
	}
	// Each nibble position's statistics depend only on the sorted round
	// sequence, so the positions shard across workers; the per-shard
	// maps have disjoint keys (one per position) and union cleanly.
	var starts []int
	for start := a.UserPrefixLen; start < 64; start += 4 {
		starts = append(starts, start)
	}
	acc := probesched.Reduce(pool, len(starts),
		func() nibbleAcc { return nibbleAcc{nibble: map[int]stats{}, prefix: map[int]stats{}} },
		func(acc nibbleAcc, si int) nibbleAcc {
			start := starts[si]
			ns := stats{}
			ps := stats{}
			seenN := map[uint64]bool{}
			seenP := map[uint64]bool{}
			L := start + 4
			for i := range ok {
				nv := ipalloc.V6Bits(ok[i].UserAddr, start, 4)
				pv := ipalloc.V6Bits(ok[i].UserAddr, 0, L)
				seenN[nv] = true
				seenP[pv] = true
				if i == 0 {
					continue
				}
				stationary := geo.DistanceKm(ok[i].TowerLoc, ok[i-1].TowerLoc) < moveThresholdKm
				if nv != ipalloc.V6Bits(ok[i-1].UserAddr, start, 4) {
					ns.changes++
					if stationary {
						ns.stationary++
					}
				}
				if pv != ipalloc.V6Bits(ok[i-1].UserAddr, 0, L) {
					ps.changes++
					if stationary {
						ps.stationary++
					}
				}
			}
			ns.distinct = len(seenN)
			ps.distinct = len(seenP)
			acc.nibble[start] = ns
			acc.prefix[L] = ps
			return acc
		},
		func(into, from nibbleAcc) nibbleAcc {
			for k, v := range from.nibble {
				into.nibble[k] = v
			}
			for k, v := range from.prefix {
				into.prefix[k] = v
			}
			return into
		})
	nibble, prefix := acc.nibble, acc.prefix

	// Classify nibbles against the stationary re-registrations: a PGW
	// nibble changes on a large share of them (gateways cycle on every
	// re-attach), while a geographic nibble almost never does — at most
	// the occasional rebalance onto a neighboring EdgeCO (§7.2.2). The
	// rate per stationary transition is robust to how much of the
	// journey was spent moving.
	stationaryTransitions := 0
	for i := 1; i < len(ok); i++ {
		if geo.DistanceKm(ok[i].TowerLoc, ok[i-1].TowerLoc) < moveThresholdKm {
			stationaryTransitions++
		}
	}
	kind := map[int]byte{} // 'c' constant, 'g' geo, 'p' pgw
	for start := a.UserPrefixLen; start < 64; start += 4 {
		s := nibble[start]
		switch {
		case s.changes == 0:
			kind[start] = 'c'
		case stationaryTransitions > 0 && float64(s.stationary)/float64(stationaryTransitions) >= 0.3:
			kind[start] = 'p'
		case stationaryTransitions == 0 && float64(s.stationary)/float64(s.changes) >= 0.15:
			// No dwell data: fall back to the fraction-of-changes rule.
			kind[start] = 'p'
		default:
			kind[start] = 'g'
		}
	}

	// Geographic levels: prefix boundaries at the end of geo nibbles,
	// collapsing consecutive boundaries with identical change counts
	// into the deepest one (several nibbles of one field change
	// together).
	var rawLevels []Level
	for start := a.UserPrefixLen; start < 64; start += 4 {
		if kind[start] != 'g' {
			continue
		}
		L := start + 4
		s := prefix[L]
		rawLevels = append(rawLevels, Level{PrefixLen: L, Changes: s.changes, DistinctValues: s.distinct})
	}
	for i, lv := range rawLevels {
		if i+1 < len(rawLevels) &&
			rawLevels[i+1].PrefixLen == lv.PrefixLen+4 &&
			rawLevels[i+1].Changes == lv.Changes {
			continue // same field, deeper boundary follows
		}
		a.GeoLevels = append(a.GeoLevels, lv)
	}
	regionEnd := a.UserPrefixLen
	if n := len(a.GeoLevels); n > 0 {
		regionEnd = a.GeoLevels[n-1].PrefixLen
		a.RegionField = Field{Start: a.UserPrefixLen, Len: regionEnd - a.UserPrefixLen}
	}

	// PGW field: the maximal run of re-registration-cycling nibbles
	// after the geographic field.
	pgwStart, pgwEnd := 0, 0
	for start := regionEnd; start < 64; start += 4 {
		if kind[start] == 'p' {
			if pgwStart == 0 {
				pgwStart = start
			}
			pgwEnd = start + 4
		} else if pgwStart != 0 {
			break
		}
	}
	if pgwStart == 0 {
		pgwStart, pgwEnd = regionEnd, regionEnd
	}
	a.PGWField = Field{Start: pgwStart, Len: pgwEnd - pgwStart}

	// PGW counts per region value.
	perRegion := map[uint64]map[uint64]bool{}
	for _, r := range ok {
		var region uint64
		if a.RegionField.Len > 0 {
			region = ipalloc.V6Bits(r.UserAddr, a.RegionField.Start, a.RegionField.Len)
		}
		pgw := ipalloc.V6Bits(r.UserAddr, a.PGWField.Start, a.PGWField.Len)
		if perRegion[region] == nil {
			perRegion[region] = map[uint64]bool{}
		}
		perRegion[region][pgw] = true
	}
	for region, set := range perRegion {
		a.PGWCounts[region] = len(set)
	}

	a.inferRouterField(pool, ok, dns)
	a.inferProviders(ok, dns)

	// Fig. 17 classification.
	switch {
	case a.RegionField.Len == 0 && len(a.Providers) >= 2:
		a.Arch = ArchMultiBackbone
	case len(a.GeoLevels) >= 2:
		a.Arch = ArchMultiEdge
	case len(a.GeoLevels) == 1:
		a.Arch = ArchSingleEdge
	}
	return a
}

// commonPrefixLen finds the longest nibble-aligned prefix shared by all
// user addresses.
func commonPrefixLen(rounds []ship.Round) int {
	L := 64
	first := rounds[0].UserAddr
	for _, r := range rounds[1:] {
		for L > 0 && ipalloc.V6Bits(first, 0, L) != ipalloc.V6Bits(r.UserAddr, 0, L) {
			L -= 4
		}
	}
	return L
}

// inferRouterField finds the infrastructure address base (the most
// common non-user /32 among hops) and the bit range that partitions
// rounds identically to the user region field.
func (a *Analysis) inferRouterField(pool *probesched.Pool, rounds []ship.Round, dns *dnsdb.DB) {
	if a.RegionField.Len == 0 {
		// Still find the infrastructure base for reporting.
		a.RouterBase = dominantInfraBase(rounds, rounds[0].UserAddr, dns)
		return
	}
	base := dominantInfraBase(rounds, rounds[0].UserAddr, dns)
	a.RouterBase = base
	if !base.IsValid() {
		return
	}
	// Candidate nibble ranges in the infrastructure addresses, in
	// canonical (length, start) order; the winner is the FIRST
	// consistent candidate in that order. Each candidate's consistency
	// check is independent of the others, so the grid shards across
	// workers and the merge keeps the first hit in shard (= canonical)
	// order — identical to the sequential scan, which never stopped
	// early either.
	var grid []Field
	for length := 4; length <= 16; length += 4 {
		for start := 32; start+length <= 80; start += 4 {
			grid = append(grid, Field{Start: start, Len: length})
		}
	}
	a.RouterField = probesched.Reduce(pool, len(grid),
		func() Field { return Field{} },
		func(best Field, gi int) Field {
			if best.Len != 0 {
				return best
			}
			start, length := grid[gi].Start, grid[gi].Len
			forward := map[uint64]uint64{}
			backward := map[uint64]uint64{}
			consistent := true
			samples := 0
		roundLoop:
			for _, r := range rounds {
				region := ipalloc.V6Bits(r.UserAddr, a.RegionField.Start, a.RegionField.Len)
				for _, h := range r.Hops {
					if !sameBase(h, base, 32) {
						continue
					}
					v := ipalloc.V6Bits(h, start, length)
					samples++
					if prev, okf := forward[region]; okf && prev != v {
						consistent = false
						break roundLoop
					}
					forward[region] = v
					if prev, okb := backward[v]; okb && prev != region {
						consistent = false
						break roundLoop
					}
					backward[v] = region
				}
			}
			if consistent && samples > 0 && len(forward) >= 2 {
				return grid[gi]
			}
			return best
		},
		func(into, from Field) Field {
			if into.Len != 0 {
				return into
			}
			return from
		})
}

// dominantInfraBase returns the /32 base most early-path hops share:
// the carrier's packet-core space. User-space, IPv4, and rDNS-named
// (foreign or backbone) hops are excluded — the carriers' CO routers
// answer unnamed, like AT&T's wireline COs.
func dominantInfraBase(rounds []ship.Round, userAddr netip.Addr, dns *dnsdb.DB) netip.Addr {
	counts := map[uint64]int{}
	var rep map[uint64]netip.Addr = map[uint64]netip.Addr{}
	userBase := ipalloc.V6Bits(userAddr, 0, 32)
	for _, r := range rounds {
		for i, h := range r.Hops {
			if i >= 4 {
				break // the packet core is the first few hops
			}
			if !h.Is6() || h.Is4In6() {
				continue
			}
			b := ipalloc.V6Bits(h, 0, 32)
			if b == userBase {
				continue
			}
			if dns != nil {
				if _, named := dns.Name(h); named {
					continue
				}
			}
			counts[b]++
			rep[b] = h
		}
	}
	// Ties break toward the numerically lowest base: counts is a Go map,
	// and "first key wins" would make the reported base depend on map
	// iteration order.
	bestN := 0
	var best netip.Addr
	for b, n := range counts {
		cand := maskTo32(rep[b])
		if n > bestN || n == bestN && best.IsValid() && cand.Less(best) {
			bestN = n
			best = cand
		}
	}
	return best
}

func maskTo32(a netip.Addr) netip.Addr {
	p := netip.PrefixFrom(a, 32)
	return p.Masked().Addr()
}

func sameBase(a, base netip.Addr, bits int) bool {
	return ipalloc.V6Bits(a, 0, bits) == ipalloc.V6Bits(base, 0, bits)
}

// inferProviders extracts the distinct upstream networks seen right
// after the carrier's infrastructure hops, using reverse DNS.
func (a *Analysis) inferProviders(rounds []ship.Round, dns *dnsdb.DB) {
	// The interner is the dedup set; its first-seen order is discarded by
	// the sort, so only distinctness matters here.
	seen := symtab.New(0)
	for _, r := range rounds {
		for _, h := range r.Hops {
			name, ok := dns.Name(h)
			if !ok {
				continue
			}
			prov := providerOf(name)
			if prov != "" {
				seen.Intern(prov)
				break // first named upstream per round
			}
		}
	}
	for s := 0; s < seen.Len(); s++ {
		a.Providers = append(a.Providers, seen.Str(symtab.Sym(s)))
	}
	sort.Strings(a.Providers)
}

// providerOf maps an upstream hop name to a provider label: the label
// under the public suffix, skipping generic transit.
func providerOf(name string) string {
	labels := strings.Split(name, ".")
	if len(labels) < 3 {
		return ""
	}
	// e.g. ae1.cr1.chcgil.zayo.example.net -> zayo;
	//      0.ge-1-0-0.nycmny.alter.net -> alter
	for i := len(labels) - 2; i > 0; i-- {
		l := labels[i]
		if l == "example" || l == "net" || l == "com" {
			continue
		}
		if l == "transit" {
			return "" // shared long-haul, not a carrier upstream
		}
		return l
	}
	return ""
}
