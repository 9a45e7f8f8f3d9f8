package comap

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"repro/internal/alias"
	"repro/internal/dnsdb"
	"repro/internal/hostnames"
	"repro/internal/netsim"
	"repro/internal/prefixset"
	"repro/internal/probesched"
	"repro/internal/segfault"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// Campaign is the Phase 1 measurement configuration for one cable
// operator (§5.1).
type Campaign struct {
	Net   *netsim.Network
	DNS   *dnsdb.DB
	Clock *vclock.Clock
	// ISP selects the hostname convention under study.
	ISP string
	// Seed is the scenario seed the probed topology was generated from;
	// it is carried into the Report (generated_seed) so a served
	// artifact names the world it measured. Zero when the caller did
	// not thread one — the campaign itself never consumes it.
	Seed int64
	// VPs are the vantage-point host addresses (the paper used 47 in
	// access, cloud, and transit networks).
	VPs []netip.Addr
	// Announced is the operator's routed address space (BGP-derived in
	// the paper); the /24 sweep enumerates it.
	Announced []netip.Prefix
	// SweepVPs and TargetVPs bound how many VPs probe each /24 and each
	// rDNS-selected target (rotated deterministically for coverage).
	SweepVPs  int
	TargetVPs int

	// Parallelism is the probe-scheduler worker count (0 selects
	// GOMAXPROCS). Collections are byte-identical at any value — see
	// internal/probesched for why — so this is purely a throughput knob.
	Parallelism int
	// MaxTraces caps the total traceroutes submitted across all stages
	// (0 = unlimited): the probe-budget knob of the core options API.
	// Jobs beyond the budget are dropped from the tail of each stage's
	// canonical job list, so a given budget is deterministic too.
	MaxTraces int

	// Resilience opts the campaign's probing into retry/backoff/budget
	// behavior and the per-VP circuit breaker. The zero value keeps the
	// campaign bit-identical to its historical (and golden-digested)
	// behavior: even legitimate timeouts would otherwise be retried,
	// changing every downstream observation.
	Resilience probesched.Resilience

	// TraceWindow, when positive, streams the campaign through the
	// windowed engine: kept traces spill to a segment log in windows of
	// this many traces, and inference replays the log window-at-a-time
	// instead of holding the archive resident. Fault-free campaigns are
	// bit-identical at any window size (the golden-equivalence tests pin
	// this); under an active FaultPlan the time-windowed faults observe
	// slightly different virtual clocks than an unbounded run — still
	// deterministic for fixed settings, but not byte-equal across window
	// sizes. Zero keeps the historical resident archive.
	TraceWindow int
	// SpillDir hosts the segment log (TraceWindow mode only). Empty
	// creates a .spill-* directory under the working directory, removed
	// by Collection.Close; a provided directory is reused and only the
	// log file itself is cleaned up.
	SpillDir string
	// Durable opts the windowed spill into crash-safe mode: every
	// sealed window is fsynced, a checkpoint record carrying the cursor
	// is appended and fsynced at every flush boundary, and a campaign
	// restarted over the same SpillDir resumes — re-probing only what
	// the crash lost — with bit-identical results. The log is the only
	// file the campaign writes.
	// Requires TraceWindow > 0 and an explicit SpillDir (an owned
	// temp directory cannot be found again after a crash).
	Durable bool
	// SpillFS is the filesystem seam durable spill I/O goes through;
	// nil selects the real OS. The crash tests inject segfault plans
	// here — production callers leave it nil.
	SpillFS segfault.FS

	// SkipDirectTargeting disables step 2 (rDNS-selected targets); used
	// by the ablation benches to quantify the paper's 5.3x claim.
	SkipDirectTargeting bool
	// SkipMPLSPass disables the Vanaubel-style follow-up traceroutes
	// and false-edge detection.
	SkipMPLSPass bool
	// SkipAlias disables alias resolution.
	SkipAlias bool
}

// Collection is the raw measurement output of a campaign.
type Collection struct {
	// The path archive (window.go): the AddrID table (addrs, inverted
	// by ids, with per-ID flags), then either resident columnar
	// windows or, for windowed campaigns, the spill log. Read
	// it through NumPaths/EachPath/Addr (or the internal foldPaths).
	// RunContext drops ids once its last address lookup is done.
	addrs   []netip.Addr
	ids     map[netip.Addr]AddrID
	flags   []uint8
	windows []*traceroute.SymWindow
	nPaths  int
	// spill is the on-disk archive of a windowed campaign; nil when
	// resident. Collection.Close releases it.
	spill *spillArchive
	// adj caches the archive's distinct gap-free adjacencies from
	// findFalsePairs to BuildGraphsParallel (see adjacencies).
	adj []uint64
	// ScanTargets are the snapshot addresses matching the operator's
	// router-name regexes.
	ScanTargets []netip.Addr
	// falsePairs and directPairs are findFalsePairs' verdicts as
	// ascending packed AddrID pairs (idPair); FalsePairs and
	// DirectPairs resolve them to addresses.
	falsePairs, directPairs []uint64
	// Aliases is the alias-resolution result (nil when skipped).
	Aliases *alias.Result
	// AliasTargets is the address set fed to alias resolution.
	AliasTargets []netip.Addr

	// The probe ledger (Stats, TracesRun, ...; see probeLedger) and
	// the vantage points the circuit breaker benched: accounting only.
	probeLedger
	Quarantined []netip.Addr

	// Resumed reports what the durable spill log's recovery decided at
	// startup (fresh, resumed at a checkpoint, or complete-replay); nil
	// for non-durable campaigns. Accounting only — resumed campaigns
	// reproduce the uninterrupted collection bit for bit.
	Resumed *traceroute.Resume
}

// probeLedger is the campaign-wide probe-outcome ledger: traceroute and
// alias probes both land in Stats (Sent == Replied + Lost + RateLimited
// always); the trace counters count whole traces and the hop-row
// counters hop rows (answered/probed is the hop yield). Accounting
// only: none of it feeds inference or the pinned digests. Collection
// and the checkpoint cursor embed it, so its field order is the
// cursor's JSON layout.
type probeLedger struct {
	TracesRun       int                   `json:"traces_run"`
	EmptyTraces     int                   `json:"empty_traces"`
	TruncatedTraces int                   `json:"truncated_traces"`
	HopRowsProbed   int                   `json:"hop_rows_probed"`
	HopRowsAnswered int                   `json:"hop_rows_answered"`
	Stats           probesched.ProbeStats `json:"stats"`
}

func (c *Campaign) defaults() {
	if c.SweepVPs == 0 {
		c.SweepVPs = 4
	}
	if c.TargetVPs == 0 {
		c.TargetVPs = 8
	}
}

// Run executes every collection stage and returns the raw observations.
// Within a stage every traceroute is independent, so jobs are built in
// canonical (target, VP-rotation) order, fanned across the probe
// scheduler, and folded back in that same order; stages themselves stay
// sequential barriers because each derives its target list from the
// previous stage's observations. Run panics with any error RunContext
// returns (a background context never cancels, so that is a spill I/O
// failure or an invalid Durable setting); callers that handle those
// use RunContext.
func (c *Campaign) Run() *Collection {
	col, err := c.RunContext(context.Background())
	if err != nil {
		panic(fmt.Errorf("comap: campaign aborted: %w", err))
	}
	return col
}

// RunContext is Run with cooperative cancellation: collection checks
// ctx before each probe batch, so a cancelled campaign probed exactly a
// prefix of the uninterrupted run. Every failure (cancellation, spill
// I/O, an invalid Durable setting) is returned after one cleanup: a
// durable campaign leaves its spill log, ending in its last checkpoint
// record, for the next RunContext over the same SpillDir to resume; a
// non-durable campaign removes its spill.
func (c *Campaign) RunContext(ctx context.Context) (col *Collection, err error) {
	c.defaults()
	pool := probesched.New(c.Parallelism, c.Clock)
	var sweep []netip.Addr
	for _, pfx := range c.Announced {
		sweep = append(sweep, enumerate24s(pfx)...)
	}
	k, err := c.newCollector(ctx, pool, len(sweep))
	if err != nil {
		return nil, err
	}
	defer func() {
		if col == nil { // an error return, or a panic unwinding
			k.release()
		}
	}()

	// Stage 1: traceroute to an address in every /24 of the announced
	// space to expose at least one router per EdgeCO.
	if err := k.probe("sweep", sweep, c.SweepVPs, 7); err != nil {
		return nil, err
	}
	// Stage 2: traceroute to every address whose snapshot rDNS matches
	// the operator's router-name regexes.
	k.col.ScanTargets = c.scanTargets(pool)
	if !c.SkipDirectTargeting {
		if err := k.probe("direct", k.col.ScanTargets, c.TargetVPs, 11); err != nil {
			return nil, err
		}
	}
	// Stage 3: traceroute to every intermediate address observed, to
	// reveal MPLS tunnel interiors (Vanaubel et al.), then flag tunnel
	// entry/exit pairs as false links once the archive is complete.
	if !c.SkipMPLSPass {
		if err := k.probe("mpls", observedTargets(k.col), 3, 13); err != nil {
			return nil, err
		}
	}
	if err := k.finish(); err != nil {
		return nil, err
	}
	if !c.SkipMPLSPass {
		findFalsePairs(k.col, pool)
	}
	if !c.SkipAlias {
		c.resolveAliases(k.col, pool)
	}
	k.col.Quarantined = k.breaker.QuarantinedVPs()
	k.col.ids = nil
	return k.col, nil
}

// scanTargets lists the snapshot addresses whose rDNS matches the
// operator's router-name regexes and parses under its hostname grammar.
// Both the regex scan and the grammar sweep shard across the campaign
// workers; shard hit lists concatenate in shard order, preserving the
// address-sorted target order the probe schedule depends on.
func (c *Campaign) scanTargets(pool *probesched.Pool) []netip.Addr {
	re := hostnames.TargetRegex(c.ISP)
	scan := c.DNS.ScanSnapshotParallel(re, c.Parallelism)
	return probesched.Reduce(pool, len(scan),
		func() []netip.Addr { return nil },
		func(out []netip.Addr, i int) []netip.Addr {
			if _, ok := hostnames.Parse(scan[i].Name); ok {
				out = append(out, scan[i].Addr)
			}
			return out
		},
		func(into, from []netip.Addr) []netip.Addr { return append(into, from...) })
}

// observedTargets lists every address observed so far in ascending
// order, the MPLS pass's targets. The prefix-set engine's canonical
// iteration IS ascending address order (v4 before v6), with no
// intermediate slice to sort.
func observedTargets(col *Collection) []netip.Addr {
	obs := prefixset.NewSet()
	col.eachObserved(func(a netip.Addr) { obs.AddAddr(a) })
	return obs.Addrs()
}

// resolveAliases runs alias resolution over the rDNS-selected
// addresses, every observed operator address, and their /30 subnet
// neighbors (Appendix B.1). Mercator probing runs globally; the IP-ID
// stage runs per regional network, as the paper does ("all IP
// addresses routed by each regional network"), which also keeps
// counter-projection collisions rare.
func (c *Campaign) resolveAliases(col *Collection, pool *probesched.Pool) {
	col.AliasTargets = c.aliasTargets(col)
	res := alias.NewResult()
	resolver := &alias.Resolver{
		Net: c.Net, Clock: c.Clock, VP: c.VPs[0],
		Parallelism: c.Parallelism,
		Stats:       &col.Stats,
	}
	resolver.MercatorInto(col.AliasTargets, res)
	for _, part := range c.partitionByRegion(col, pool) {
		resolver.MIDARInto(part, res)
	}
	// All evidence is in; drop the per-target union-find state so a
	// retained collection holds only the multi-member groups.
	res.Compact()
	col.Aliases = res
}

// partitionByRegion splits the alias targets by regional network: named
// addresses by their rDNS region tag, unnamed addresses by the dominant
// region of the paths they appear in, and the remainder into bounded
// chunks.
//
// The path walk is a sharded foldPaths over AddrIDs: every ID carries
// its target's region as a small integer (regions are numbered in
// sorted order), a path's region census is a short scratch list, and
// the shards accumulate (ID, region) vote counts and (region, ID)
// backbone co-occurrences under packed keys, merged by sum and union.
func (c *Campaign) partitionByRegion(col *Collection, pool *probesched.Pool) [][]netip.Addr {
	const backboneTag = "backbone"
	targets := col.AliasTargets
	// Name each target's region (disjoint writes, so the shards share
	// one slice).
	named := make([]string, len(targets))
	probesched.Reduce(pool, len(targets),
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) struct{} {
			if name, ok := c.DNS.Name(targets[i]); ok {
				if info, ok := hostnames.Parse(name); ok && info.ISP == c.ISP {
					if info.Backbone {
						named[i] = backboneTag
					} else {
						named[i] = info.Region
					}
				}
			}
			return struct{}{}
		},
		func(into, _ struct{}) struct{} { return into })
	var regions []string
	for _, r := range named {
		if r != "" {
			regions = append(regions, r)
		}
	}
	slices.Sort(regions)
	regions = slices.Compact(regions)
	regionIdx := func(r string) int32 {
		i, _ := slices.BinarySearch(regions, r)
		return int32(i)
	}
	bbIdx := int32(-1)
	if i, ok := slices.BinarySearch(regions, backboneTag); ok {
		bbIdx = int32(i)
	}
	// tag[id] is the target's region index, tagUnnamed for a target
	// without one, or tagNone for an address that is no target.
	const (
		tagNone    int32 = -1
		tagUnnamed int32 = -2
	)
	tag := make([]int32, col.NumAddrs())
	for i := range tag {
		tag[i] = tagNone
	}
	nBackbone := 0
	for i, a := range targets {
		if named[i] == backboneTag {
			nBackbone++
		}
		id, ok := col.idOf(a)
		if !ok {
			continue
		}
		if named[i] != "" {
			tag[id] = regionIdx(named[i])
		} else {
			tag[id] = tagUnnamed
		}
	}
	// bbRideCap bounds the per-region backbone ride-along. Paper-size
	// topologies stay far under it, so every regional partition keeps
	// the full backbone set exactly as before; scaled topologies (where
	// the backbone interface count grows with the region count, and
	// partitions x backbone would make the IP-ID stage quadratic) trim
	// the ride-along to the backbone addresses co-observed on the
	// region's own paths — which the walk below only records when the
	// cap can bite.
	const bbRideCap = 1000
	trackBB := nBackbone > bbRideCap

	// Attribute unnamed targets by path context: each path votes its
	// dominant named region (strict majority of its named, non-backbone
	// hops) to every unnamed target on it.
	type regionCount struct{ region, n int32 }
	type walkAcc struct {
		votes  map[uint64]int32    // idPair(id, region) -> votes
		bbSeen map[uint64]struct{} // idPair(region, backbone id)
		count  []regionCount       // per-path scratch
	}
	walk := foldPaths(pool, col,
		func() walkAcc {
			return walkAcc{votes: map[uint64]int32{}, bbSeen: map[uint64]struct{}{}}
		},
		func(acc walkAcc, _ int, p Path, _ string) walkAcc {
			count := acc.count[:0]
			for _, h := range p.Hops {
				r := tag[h]
				if r < 0 || r == bbIdx {
					continue
				}
				found := false
				for k := range count {
					if count[k].region == r {
						count[k].n++
						found = true
						break
					}
				}
				if !found {
					count = append(count, regionCount{r, 1})
				}
			}
			acc.count = count
			if len(count) == 0 {
				return acc
			}
			if trackBB {
				for _, h := range p.Hops {
					if tag[h] != bbIdx {
						continue
					}
					for _, rc := range count {
						acc.bbSeen[idPair(AddrID(rc.region), h)] = struct{}{}
					}
				}
			}
			dom, best, tied := int32(-1), int32(0), false
			for _, rc := range count {
				switch {
				case rc.n > best:
					dom, best, tied = rc.region, rc.n, false
				case rc.n == best:
					tied = true
				}
			}
			if tied {
				return acc
			}
			for _, h := range p.Hops {
				if tag[h] == tagUnnamed {
					acc.votes[idPair(h, AddrID(dom))]++
				}
			}
			return acc
		},
		func(into, from walkAcc) walkAcc {
			if len(from.votes) > len(into.votes) {
				into.votes, from.votes = from.votes, into.votes
			}
			for k, n := range from.votes {
				into.votes[k] += n
			}
			into.bbSeen = mergeSet(into.bbSeen, from.bbSeen)
			return into
		})
	// An unnamed target takes its strict-majority region.
	type vote struct {
		region, n int32
		tied      bool
	}
	top := map[AddrID]vote{}
	for k, n := range walk.votes {
		id, r := AddrID(k>>32), int32(uint32(k))
		v, ok := top[id]
		switch {
		case !ok || n > v.n:
			top[id] = vote{region: r, n: n}
		case n == v.n:
			v.tied = true
			top[id] = v
		}
	}
	regionOf := func(i int) string {
		if named[i] != "" {
			return named[i]
		}
		if id, ok := col.idOf(targets[i]); ok {
			if v, ok := top[id]; ok && !v.tied {
				return regions[v.region]
			}
		}
		return ""
	}

	parts := map[string][]netip.Addr{}
	var misc []netip.Addr
	for i, a := range targets {
		if r := regionOf(i); r != "" {
			parts[r] = append(parts[r], a)
		} else {
			misc = append(misc, a)
		}
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	backbone := parts[backboneTag]
	var out [][]netip.Addr
	for _, k := range keys {
		part := parts[k]
		if k != backboneTag {
			// Stale rDNS sometimes hangs a regional name on a backbone
			// router interface; grouping it with the backbone routers
			// is what corrects the name, so the backbone addresses ride
			// along in every regional partition.
			ride := backbone
			if len(backbone) > bbRideCap {
				ride = ride[:0:0]
				r := AddrID(regionIdx(k))
				for _, a := range backbone {
					if id, ok := col.idOf(a); ok {
						if _, seen := walk.bbSeen[idPair(r, id)]; seen {
							ride = append(ride, a)
						}
					}
				}
			}
			part = append(append([]netip.Addr{}, part...), ride...)
		}
		out = append(out, part)
	}
	// Bound the unattributed chunk size.
	const chunk = 2000
	for len(misc) > 0 {
		n := chunk
		if n > len(misc) {
			n = len(misc)
		}
		out = append(out, misc[:n])
		misc = misc[n:]
	}
	return out
}

// enumerate24s lists the .1 address of every /24 inside pfx.
func enumerate24s(pfx netip.Prefix) []netip.Addr {
	if !pfx.Addr().Is4() {
		return nil
	}
	if pfx.Bits() > 24 {
		return []netip.Addr{pfx.Addr().Next()}
	}
	n := 1 << (24 - pfx.Bits())
	out := make([]netip.Addr, 0, n)
	b := pfx.Masked().Addr().As4()
	for i := 0; i < n; i++ {
		base := (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8) + uint32(i)<<8
		out = append(out, netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), 1}))
	}
	return out
}

// aliasTargets assembles the alias-resolution input set as prefix-set
// algebra instead of per-address map scans:
//
//	targets = scan ∪ ((∪ /30-blocks of observed ∩ announced) ∩ announced)
//
// An observed in-ISP address pulls in its whole /30 (itself plus the
// Appendix B.1 subnet neighbors), clipped back to the announced space
// — the intersection replaces the old per-neighbor inISP linear scan
// over Announced, which at scaled route tables was a measurable
// fraction of the alias stage. Scan-matched addresses join
// unconditionally: interconnect subnets live in the neighbor's space.
// Address enumeration over the aggregated set is ascending with
// overlap collapsed, byte-identical to the sorted map-key order it
// replaces (the golden alias digest pins this).
func (c *Campaign) aliasTargets(col *Collection) []netip.Addr {
	announced := prefixset.NewSet(c.Announced...)
	blocks := prefixset.NewSet()
	col.eachObserved(func(a netip.Addr) {
		if !announced.Contains(a) {
			return
		}
		if a.Is4() {
			if p, err := a.Prefix(30); err == nil {
				blocks.Add(p)
				return
			}
		}
		blocks.AddAddr(a)
	})
	targets := blocks.Intersect(announced)
	// Every address whose rDNS matched the operator's regexes belongs in
	// the alias set even when it falls outside the announced blocks.
	for _, a := range col.ScanTargets {
		targets.AddAddr(a)
	}
	return targets.Addrs()
}

// subnet30Neighbors returns the other (up to three) addresses of a's
// /30 in out[:n]; the fixed-size return keeps the per-address call
// allocation-free.
func subnet30Neighbors(a netip.Addr) (out [3]netip.Addr, n int) {
	if !a.Is4() {
		return out, 0
	}
	b := a.As4()
	base := b[3] &^ 3
	for off := byte(0); off < 4; off++ {
		nb := netip.AddrFrom4([4]byte{b[0], b[1], b[2], base | off})
		if nb != a {
			out[n] = nb
			n++
		}
	}
	return out, n
}

// p2pMate returns the interface address expected on the far side of a
// point-to-point link from a: the other usable address of a's /31 or
// /30 (bits as inferred for the operator).
func p2pMate(a netip.Addr, bits int) (netip.Addr, bool) {
	if !a.Is4() {
		return netip.Addr{}, false
	}
	b := a.As4()
	switch bits {
	case 31:
		return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] ^ 1}), true
	case 30:
		switch b[3] & 3 {
		case 1:
			return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] + 1}), true
		case 2:
			return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] - 1}), true
		}
	}
	return netip.Addr{}, false
}

// findFalsePairs applies the Vanaubel test: a pair adjacent in some path
// but separated by intermediate hops in a path destined to the pair's
// second address is an MPLS entry/exit artifact.
//
// Both scans are forward path folds (no random access into the
// archive), so the test runs identically over resident and spilled
// collections: the archive's adjacency set (pass one, shared with the
// mapping's mate vote) supplies the candidate pairs, and pass two
// checks every reached path against the pairs ending at its
// destination. The verdicts are set inserts ORed over paths, so the
// pass-two iteration order is immaterial. Everything is keyed by
// AddrIDs — the candidate lists are a dense per-ID index, the verdict
// sets packed ID pairs — and the exported address-keyed FalsePairs and
// DirectPairs resolve the sorted verdicts on demand. The reference
// [2]netip.Addr implementation lives in falsepairs_ref_test.go.
func findFalsePairs(col *Collection, pool *probesched.Pool) {
	adj := col.adjacencies(pool)
	// Invert: for each adjacency (a, b), the candidate first elements a
	// listed under the pair's second address b, as one CSR index over
	// the ID space — pass two looks up a path's own destination instead
	// of scanning paths per pair.
	n := col.NumAddrs()
	candStart := make([]int32, n+1)
	for _, k := range adj {
		candStart[uint32(k)+1]++
	}
	for i := 1; i <= n; i++ {
		candStart[i] += candStart[i-1]
	}
	cands := make([]AddrID, len(adj))
	fill := append([]int32(nil), candStart[:n]...)
	for _, k := range adj {
		b := uint32(k)
		cands[fill[b]] = AddrID(k >> 32)
		fill[b]++
	}
	type verdicts struct {
		falsePairs  map[uint64]struct{}
		directPairs map[uint64]struct{}
	}
	v := foldPaths(pool, col,
		func() verdicts {
			return verdicts{map[uint64]struct{}{}, map[uint64]struct{}{}}
		},
		func(acc verdicts, _ int, p Path, _ string) verdicts {
			if !p.Reached {
				return acc
			}
			b := p.Dst
			cs := cands[candStart[b]:candStart[b+1]]
			if len(cs) == 0 {
				return acc
			}
			// Last occurrences, matching the historical scan exactly.
			bPos := -1
			for i, h := range p.Hops {
				if h == b {
					bPos = i
				}
			}
			for _, a := range cs {
				aPos := -1
				for i, h := range p.Hops {
					if h == a {
						aPos = i
					}
				}
				switch {
				case aPos >= 0 && bPos > aPos+1:
					// Separated by revealed interior hops: tunnel artifact.
					acc.falsePairs[idPair(a, b)] = struct{}{}
				case aPos >= 0 && bPos == aPos+1 && !p.Gaps[bPos]:
					// Still adjacent when the LSP cannot hide anything:
					// genuine physical link.
					acc.directPairs[idPair(a, b)] = struct{}{}
				}
			}
			return acc
		},
		func(into, from verdicts) verdicts {
			into.falsePairs = mergeSet(into.falsePairs, from.falsePairs)
			into.directPairs = mergeSet(into.directPairs, from.directPairs)
			return into
		})
	col.falsePairs = sortedKeys(v.falsePairs)
	col.directPairs = sortedKeys(v.directPairs)
}

// FalsePairs lists the IP adjacencies identified as MPLS tunnel
// entry/exit pairs (false links), in AddrID-pair order.
func (c *Collection) FalsePairs() [][2]netip.Addr { return c.addrPairs(c.falsePairs) }

// DirectPairs lists the IP adjacencies confirmed as physically adjacent
// by a traceroute addressed to the second address (where an LSP cannot
// hide interior hops), in AddrID-pair order.
func (c *Collection) DirectPairs() [][2]netip.Addr { return c.addrPairs(c.directPairs) }

// idPair packs an ordered AddrID pair into one map key.
func idPair(a, b AddrID) uint64 { return uint64(a)<<32 | uint64(b) }

// addrPairs resolves packed ID pairs to address pairs.
func (c *Collection) addrPairs(keys []uint64) [][2]netip.Addr {
	out := make([][2]netip.Addr, len(keys))
	for i, k := range keys {
		out[i] = [2]netip.Addr{c.addrs[k>>32], c.addrs[uint32(k)]}
	}
	return out
}

// hasPair reports whether the ascending packed-pair list keys holds k.
func hasPair(keys []uint64, k uint64) bool {
	_, ok := slices.BinarySearch(keys, k)
	return ok
}

// sortedKeys lists a packed-pair set in ascending order.
func sortedKeys(set map[uint64]struct{}) []uint64 {
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// adjacencies returns the archive's distinct gap-free adjacent hop
// pairs as packed ID pairs (idPair), ascending. The set is folded on
// first use and cached: the false-pair test, the mapping's mate vote
// and the graph pass all read it, and distinct adjacencies are a small
// fraction of the hop rows. BuildGraphsParallel, the last reader,
// releases the cache, so a retained Collection does not hold it (a
// later call folds it again). Like the rest of a Collection's passes,
// it is not safe for concurrent first use.
func (c *Collection) adjacencies(pool *probesched.Pool) []uint64 {
	if c.adj != nil || c.nPaths == 0 {
		return c.adj
	}
	set := foldPaths(pool, c,
		func() map[uint64]struct{} { return map[uint64]struct{}{} },
		func(set map[uint64]struct{}, _ int, p Path, _ string) map[uint64]struct{} {
			for i := 1; i < len(p.Hops); i++ {
				if !p.Gaps[i] {
					set[idPair(p.Hops[i-1], p.Hops[i])] = struct{}{}
				}
			}
			return set
		},
		mergeSet[uint64])
	c.adj = sortedKeys(set)
	return c.adj
}

// mergeSet folds the smaller set into the larger.
func mergeSet[K comparable](into, from map[K]struct{}) map[K]struct{} {
	if len(from) > len(into) {
		into, from = from, into
	}
	for k := range from {
		into[k] = struct{}{}
	}
	return into
}
