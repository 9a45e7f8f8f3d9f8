package attmap

import (
	"net/netip"
	"strings"
	"time"

	"repro/internal/hostnames"
	"repro/internal/ping"
	"repro/internal/probesched"
	"repro/internal/symtab"
	"repro/internal/traceroute"
)

// EdgeLatency is the Table 2 measurement: minimum RTT from a cloud VM to
// the EdgeCO-resident device in front of each customer.
type EdgeLatency struct {
	// PerDevice maps the penultimate-hop device address to its minimum
	// RTT.
	PerDevice map[netip.Addr]time.Duration
	// Customers maps each measured customer to its penultimate device.
	Customers map[netip.Addr]netip.Addr
}

// MeasureEdgeLatency reproduces §6.3: traceroute from the VM to each
// customer address, keep traces that cross the region's backbone and
// whose penultimate hop responded, then elicit responses from the
// penultimate device with TTL-limited echos and record the minimum RTT.
// The traceroute and ping phases each fan out over the probe scheduler;
// the barrier between them exists because each ping's TTL comes from
// its customer's trace.
func (c *Campaign) MeasureEdgeLatency(vm netip.Addr, customers []netip.Addr, regionTag string, pings int) EdgeLatency {
	if pings == 0 {
		pings = 100
	}
	out := EdgeLatency{
		PerDevice: map[netip.Addr]time.Duration{},
		Customers: map[netip.Addr]netip.Addr{},
	}
	eng := &traceroute.Engine{Net: c.Net, Clock: c.Clock, Attempts: 2, GapLimit: 4}
	pinger := &ping.Pinger{Net: c.Net, Clock: c.Clock}
	pool := probesched.New(c.Parallelism, c.Clock)

	traceJobs := make([]probesched.Request, len(customers))
	for i, cust := range customers {
		traceJobs[i] = probesched.Request{Src: vm, Dst: cust}
	}
	var pingJobs []probesched.Request
	for i, tr := range eng.Traces(pool, traceJobs) {
		// The customer itself is silent; require a responsive
		// penultimate device after this region's backbone.
		if !crossesBackbone(c, tr, regionTag) {
			continue
		}
		last, ok := tr.LastResponsive()
		if !ok {
			continue
		}
		pingJobs = append(pingJobs, probesched.Request{
			Src: vm, Dst: customers[i], TTL: last.TTL, Count: pings,
		})
	}
	for i, po := range pinger.Outcomes(pool, pingJobs) {
		min, ok := po.Min()
		if !ok || !po.From.IsValid() {
			continue
		}
		out.Customers[pingJobs[i].Dst] = po.From
		if cur, seen := out.PerDevice[po.From]; !seen || min < cur {
			out.PerDevice[po.From] = min
		}
	}
	return out
}

func crossesBackbone(c *Campaign, tr traceroute.Trace, regionTag string) bool {
	for _, h := range tr.ResponsiveHops() {
		name, ok := c.DNS.Name(h.Addr)
		if !ok {
			continue
		}
		info, ok := hostnames.Parse(name)
		if ok && info.ISP == c.ISP && info.Backbone && info.CO == regionTag {
			return true
		}
	}
	return false
}

// PathCoverage counts the distinct IP paths (from the second hop, per
// §6.1) a set of vantage points observes toward the given targets; the
// McTraceroute evaluation compares hotspot VPs against Atlas/Ark VPs.
func (c *Campaign) PathCoverage(vps []netip.Addr, targets []netip.Addr) int {
	eng := &traceroute.Engine{Net: c.Net, Clock: c.Clock, Attempts: 2, GapLimit: 5}
	pool := probesched.New(c.Parallelism, c.Clock)
	var jobs []probesched.Request
	for _, vp := range vps {
		for _, dst := range targets {
			jobs = append(jobs, probesched.Request{Src: vp, Dst: dst})
		}
	}
	// The interner doubles as the dedup set: distinct path keys get
	// distinct symbols, so the table length IS the distinct-path count.
	seen := symtab.New(0)
	for _, tr := range eng.Traces(pool, jobs) {
		hops := tr.ResponsiveHops()
		if len(hops) < 2 {
			continue
		}
		var b strings.Builder
		for _, h := range hops[1:] {
			b.WriteString(h.Addr.String())
			b.WriteByte('>')
		}
		seen.Intern(b.String())
	}
	return seen.Len()
}
