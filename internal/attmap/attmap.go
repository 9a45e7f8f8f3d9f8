// Package attmap implements the paper's AT&T case study (§6, Appendix
// C): bootstrapping region discovery from lightspeed DSLAM rDNS,
// discovering per-region EdgeCO router prefixes from inter- and
// intra-region traceroutes, revealing the MPLS-hidden aggregation layer
// with targeted (DPR) traceroutes, clustering routers into EdgeCOs via
// shared last-mile links, and inferring the CO-level topology of
// Fig. 13.
package attmap

import (
	"net/netip"
	"sort"

	"repro/internal/dnsdb"
	"repro/internal/hostnames"
	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/symtab"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// Campaign configures the AT&T measurement.
type Campaign struct {
	Net   *netsim.Network
	DNS   *dnsdb.DB
	Clock *vclock.Clock
	ISP   string

	// BootstrapVPs are Ark-style probes on the operator's DSL lines in
	// assorted regions (the paper used 5 near San Diego).
	BootstrapVPs []netip.Addr
	// RegionVPs are internal vantage points per backbone-region tag
	// (Atlas/Ark probes plus McTraceroute WiFi hosts).
	RegionVPs map[string][]netip.Addr

	// MaxBootstrapPerRegion bounds bootstrap traceroutes per lightspeed
	// code (the full 95,821-address sweep is unnecessary to find the
	// prefixes).
	MaxBootstrapPerRegion int

	// Parallelism is the probe-scheduler worker count (0 selects
	// GOMAXPROCS). Results are byte-identical at any value — see
	// internal/probesched — so this is purely a throughput knob.
	Parallelism int

	// Resilience opts the campaign into retries, probe budgets, and the
	// per-VP circuit breaker (zero value keeps historical behavior). The
	// breaker is fed from the bootstrap wave: a bootstrap VP with zero
	// yield there is dropped from every later DPR wave.
	Resilience probesched.Resilience
}

// RouterRole is the inferred function of a router group.
type RouterRole uint8

const (
	// RoleUnknown covers routers the inference could not place.
	RoleUnknown RouterRole = iota
	// RoleBackbone routers carry ip.att.net-style rDNS.
	RoleBackbone
	// RoleAgg routers appear between the backbone and edge routers.
	RoleAgg
	// RoleEdge routers sit one hop from last-mile links.
	RoleEdge
)

func (r RouterRole) String() string {
	switch r {
	case RoleBackbone:
		return "backbone"
	case RoleAgg:
		return "agg"
	case RoleEdge:
		return "edge"
	}
	return "unknown"
}

// RegionMap is the inferred router- and CO-level topology of one region.
type RegionMap struct {
	// Tag is the backbone rDNS region token (e.g. "sd2ca").
	Tag string
	// Codes are the lightspeed city codes aggregated by this backbone
	// region.
	Codes []string

	// RouterOf maps every observed address to its router representative
	// (alias-group root).
	RouterOf map[netip.Addr]netip.Addr
	// Roles classifies each router representative.
	Roles map[netip.Addr]RouterRole
	// Links are router-level adjacencies (undirected, canonical order).
	Links map[[2]netip.Addr]bool
	// EdgeCOs are clusters of edge routers sharing last-mile links.
	EdgeCOs [][]netip.Addr
	// EdgePrefixes and AggPrefixes are the discovered router /24s
	// (Table 6).
	EdgePrefixes []netip.Prefix
	AggPrefixes  []netip.Prefix
	// LspgwEdgeRouters maps each lightspeed gateway to the edge routers
	// observed serving it.
	LspgwEdgeRouters map[netip.Addr][]netip.Addr
}

// Routers returns the router representatives with the given role.
func (m *RegionMap) Routers(role RouterRole) []netip.Addr {
	var out []netip.Addr
	for r, ro := range m.Roles {
		if ro == role {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// BackboneFullMesh reports whether every backbone router links to every
// agg router — the §6.2 evidence for a single BackboneCO.
func (m *RegionMap) BackboneFullMesh() bool {
	bbs := m.Routers(RoleBackbone)
	aggs := m.Routers(RoleAgg)
	if len(bbs) == 0 || len(aggs) == 0 {
		return false
	}
	for _, bb := range bbs {
		for _, ag := range aggs {
			if !m.Links[linkKey(bb, ag)] {
				return false
			}
		}
	}
	return true
}

// InferredBackboneCOs returns 1 when the backbone routers form a full
// mesh to the aggregation routers (one office housing both routers),
// otherwise the number of backbone routers.
func (m *RegionMap) InferredBackboneCOs() int {
	if m.BackboneFullMesh() {
		return 1
	}
	return len(m.Routers(RoleBackbone))
}

// AggsOfEdgeCO returns the agg routers connected to any router of an
// EdgeCO cluster.
func (m *RegionMap) AggsOfEdgeCO(cluster []netip.Addr) []netip.Addr {
	set := map[netip.Addr]bool{}
	for _, er := range cluster {
		for _, ag := range m.Routers(RoleAgg) {
			if m.Links[linkKey(er, ag)] {
				set[ag] = true
			}
		}
	}
	out := make([]netip.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func linkKey(a, b netip.Addr) [2]netip.Addr {
	if b.Less(a) {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

// Result is the campaign output.
type Result struct {
	// Regions maps backbone tags to inferred topologies (only regions
	// with internal vantage points get router-level maps).
	Regions map[string]*RegionMap
	// CodeToTag records which backbone region serves each lightspeed
	// code (the region inventory of Appendix C).
	CodeToTag map[string]string
	// Lspgws lists the scan-selected gateway addresses per code.
	Lspgws map[string][]netip.Addr

	// Stats is the campaign-wide probe-outcome ledger (accounting only —
	// the inference never branches on it).
	Stats probesched.ProbeStats
	// QuarantinedVPs lists bootstrap VPs the circuit breaker benched.
	QuarantinedVPs []netip.Addr
}

// Run executes the full AT&T pipeline.
func (c *Campaign) Run() *Result {
	if c.MaxBootstrapPerRegion == 0 {
		c.MaxBootstrapPerRegion = 6
	}
	res := &Result{
		Regions:   map[string]*RegionMap{},
		CodeToTag: map[string]string{},
		Lspgws:    map[string][]netip.Addr{},
	}
	eng := &traceroute.Engine{Net: c.Net, Clock: c.Clock, Attempts: 2, GapLimit: 5}
	eng.ApplyResilience(c.Resilience)
	breaker := probesched.NewBreaker(c.Resilience.BreakerThreshold)

	// Target selection: every snapshot address matching the lightspeed
	// pattern, grouped by 6-character city code. The scan and grammar
	// sweep shard across the campaign workers; per-code lists
	// concatenate in shard order, preserving the address-sorted order
	// within each code.
	pool := probesched.New(c.Parallelism, c.Clock)
	re := hostnames.TargetRegex(c.ISP)
	scan := c.DNS.ScanSnapshotParallel(re, c.Parallelism)
	// City codes are interned per shard and the per-code lists live in a
	// dense slice indexed by symbol (Syms are 0..Len-1 by construction);
	// the shard-order table merge keeps concatenation order identical to
	// a sequential scan, and the string-keyed Lspgws map is materialized
	// once at the end.
	type lspAcc struct {
		syms  *symtab.Table
		addrs [][]netip.Addr // indexed by city-code Sym
	}
	lsp := probesched.Reduce(pool, len(scan),
		func() lspAcc { return lspAcc{syms: symtab.New(0)} },
		func(acc lspAcc, i int) lspAcc {
			info, ok := hostnames.Parse(scan[i].Name)
			if ok && info.ISP == c.ISP {
				s := acc.syms.Intern(info.CO)
				if int(s) == len(acc.addrs) {
					acc.addrs = append(acc.addrs, nil)
				}
				acc.addrs[s] = append(acc.addrs[s], scan[i].Addr)
			}
			return acc
		},
		func(into, from lspAcc) lspAcc {
			remap := into.syms.Merge(from.syms)
			for s, addrs := range from.addrs {
				t := int(remap[s])
				for t >= len(into.addrs) {
					into.addrs = append(into.addrs, nil)
				}
				into.addrs[t] = append(into.addrs[t], addrs...)
			}
			return into
		})
	for s, addrs := range lsp.addrs {
		if len(addrs) > 0 {
			res.Lspgws[lsp.syms.Str(symtab.Sym(s))] = addrs
		}
	}

	// Bootstrap: traceroute from the Ark-style VPs toward a few lspgws
	// per code; record the backbone tag seen en route and the /24 of
	// the hop immediately before the gateway (an EdgeCO router). The
	// traces fan out over the probe scheduler; the fold walks them in
	// submission (code, target, VP) order so the first-wins CodeToTag
	// assignment matches a sequential run.
	var jobs []probesched.Request
	var jobCode []string
	edge24s := map[string]map[netip.Prefix]bool{} // tag -> /24 set
	codes := make([]string, 0, len(res.Lspgws))
	for code := range res.Lspgws {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		targets := res.Lspgws[code]
		n := c.MaxBootstrapPerRegion
		if n > len(targets) {
			n = len(targets)
		}
		for i := 0; i < n; i++ {
			dst := targets[i*len(targets)/n]
			for _, vp := range c.BootstrapVPs {
				jobs = append(jobs, probesched.Request{Src: vp, Dst: dst})
				jobCode = append(jobCode, code)
			}
		}
	}
	for j, tr := range eng.Traces(pool, jobs) {
		res.Stats.Add(tr.Stats())
		breaker.Record(tr.Src, len(tr.ResponsiveHops()) == 0)
		code := jobCode[j]
		tag := backboneTag(c.DNS, tr)
		if tag == "" {
			continue
		}
		if res.CodeToTag[code] == "" {
			res.CodeToTag[code] = tag
		}
		if pfx, ok := c.edgeRouter24(tr); ok {
			if edge24s[tag] == nil {
				edge24s[tag] = map[netip.Prefix]bool{}
			}
			edge24s[tag][pfx] = true
		}
	}

	// Bootstrap VPs with zero yield are benched before the DPR waves;
	// quarantine decisions run on the in-order fold above, so the list
	// (and every job schedule derived from it) is worker-count invariant.
	res.QuarantinedVPs = breaker.QuarantinedVPs()
	boots := make([]netip.Addr, 0, len(c.BootstrapVPs))
	for _, vp := range c.BootstrapVPs {
		if !breaker.Quarantined(vp) {
			boots = append(boots, vp)
		}
	}

	// Region mapping: for each region with internal VPs, sweep the
	// discovered router /24s (DPR reveals the MPLS-hidden agg layer),
	// trace to every lspgw, alias-resolve, and build the topology.
	// Region tags are walked in sorted order so multi-region campaigns
	// consume virtual time (and hence produce IP-ID-dependent MIDAR
	// evidence) in a fixed sequence.
	tags := make([]string, 0, len(c.RegionVPs))
	for tag := range c.RegionVPs {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		vps := c.RegionVPs[tag]
		if len(vps) == 0 {
			continue
		}
		// Walk the sorted code list, not the CodeToTag map: the lspgw
		// target order feeds straight into mapRegion's probe schedule,
		// so it must not depend on map iteration order.
		var lspgws []netip.Addr
		var regionCodes []string
		for _, code := range codes {
			if res.CodeToTag[code] == tag {
				regionCodes = append(regionCodes, code)
				lspgws = append(lspgws, res.Lspgws[code]...)
			}
		}
		var prefixes []netip.Prefix
		for pfx := range edge24s[tag] {
			prefixes = append(prefixes, pfx)
		}
		sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr().Less(prefixes[j].Addr()) })
		rm := c.mapRegion(eng, tag, vps, boots, lspgws, prefixes, &res.Stats)
		rm.Codes = regionCodes
		res.Regions[tag] = rm
	}
	return res
}

// backboneTag extracts the backbone region token serving the trace's
// destination: the LAST operator-backbone hop on the path (an
// inter-region path crosses the source region's backbone first).
func backboneTag(dns *dnsdb.DB, tr traceroute.Trace) string {
	tag := ""
	for _, h := range tr.ResponsiveHops() {
		name, ok := dns.Name(h.Addr)
		if !ok {
			continue
		}
		info, ok := hostnames.Parse(name)
		if ok && info.Backbone && info.ISP == "att" {
			tag = info.CO
		}
	}
	return tag
}

// edgeRouter24 returns the /24 of the hop immediately before a reached
// lightspeed gateway. The hop must be TTL-contiguous with the gateway (a
// silent EdgeCO router would otherwise attribute a backbone /24 to the
// edge) and must be unnamed, since the operator's CO routers carry no
// rDNS.
func (c *Campaign) edgeRouter24(tr traceroute.Trace) (netip.Prefix, bool) {
	hops := tr.ResponsiveHops()
	if !tr.Reached || len(hops) < 2 {
		return netip.Prefix{}, false
	}
	last := hops[len(hops)-1]
	prev := hops[len(hops)-2]
	if prev.TTL != last.TTL-1 || !prev.Addr.Is4() {
		return netip.Prefix{}, false
	}
	if _, named := c.DNS.Name(prev.Addr); named {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(prev.Addr, 24).Masked(), true
}

// BackboneOffices groups the backbone routers into inferred offices:
// one shared office when they form a full mesh to the aggregation layer
// (§6.2's conclusion), otherwise one office per router.
func (m *RegionMap) BackboneOffices() [][]netip.Addr {
	bbs := m.Routers(RoleBackbone)
	if len(bbs) == 0 {
		return nil
	}
	if m.BackboneFullMesh() {
		return [][]netip.Addr{bbs}
	}
	out := make([][]netip.Addr, len(bbs))
	for i, bb := range bbs {
		out[i] = []netip.Addr{bb}
	}
	return out
}

// BackboneFailureImpact simulates the loss of one inferred BackboneCO
// (the Christmas 2020 Nashville attack) and returns the fraction of
// edge routers left with no path to any surviving backbone router.
func (m *RegionMap) BackboneFailureImpact(office []netip.Addr) float64 {
	failed := map[netip.Addr]bool{}
	for _, bb := range office {
		failed[bb] = true
	}
	// Adjacency over surviving routers.
	adj := map[netip.Addr][]netip.Addr{}
	for l := range m.Links {
		a, b := l[0], l[1]
		if failed[a] || failed[b] {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	reach := map[netip.Addr]bool{}
	var queue []netip.Addr
	for _, bb := range m.Routers(RoleBackbone) {
		if !failed[bb] {
			reach[bb] = true
			queue = append(queue, bb)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !reach[nb] {
				reach[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	edges := m.Routers(RoleEdge)
	if len(edges) == 0 {
		return 0
	}
	cut := 0
	for _, e := range edges {
		if !reach[e] {
			cut++
		}
	}
	return float64(cut) / float64(len(edges))
}
