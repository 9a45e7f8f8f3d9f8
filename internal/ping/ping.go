// Package ping collects RTT series over the simulated network: plain
// echo series (the paper's 100-ping cloud studies, §5.5) and the
// TTL-limited echo trick used to elicit responses from AT&T EdgeCO
// devices that cannot be pinged directly (§6.3).
package ping

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/vclock"
)

// Pinger sends echo series on a virtual clock.
type Pinger struct {
	Net   *netsim.Network
	Clock *vclock.Clock
	// Timeout is the wait for an unanswered probe (default 1s).
	Timeout time.Duration
	// Interval spaces successive probes (default 10ms, scamper-like).
	Interval time.Duration
}

// Series summarizes one measurement run.
type Series struct {
	Sent, Received int
	// Lost and RateLimited classify the unanswered probes: RateLimited
	// counts replies suppressed by ICMP rate limiting, Lost everything
	// else — including replies of an unusable type (a series only
	// accepts its expected reply kind), so Sent == Received + Lost +
	// RateLimited always holds.
	Lost, RateLimited int
	RTTs              []time.Duration // the received RTTs in send order
}

// Stats exports the series' outcome ledger for campaign accounting.
func (s Series) Stats() probesched.ProbeStats {
	return probesched.ProbeStats{
		Sent: s.Sent, Replied: s.Received, Lost: s.Lost, RateLimited: s.RateLimited,
	}
}

// account files an unusable reply into the series' loss buckets.
func (s *Series) account(r netsim.Reply) {
	if r.Outcome() == netsim.OutcomeRateLimited {
		s.RateLimited++
	} else {
		s.Lost++
	}
}

// Min returns the minimum RTT, or false when nothing was received.
func (s Series) Min() (time.Duration, bool) {
	if len(s.RTTs) == 0 {
		return 0, false
	}
	min := s.RTTs[0]
	for _, r := range s.RTTs[1:] {
		if r < min {
			min = r
		}
	}
	return min, true
}

// Median returns the median RTT, or false when nothing was received.
func (s Series) Median() (time.Duration, bool) {
	if len(s.RTTs) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), s.RTTs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], true
}

func (p *Pinger) defaults() {
	if p.Timeout == 0 {
		p.Timeout = time.Second
	}
	if p.Interval == 0 {
		p.Interval = 10 * time.Millisecond
	}
}

// Ping sends count echo requests from src to dst. The pinger's
// configuration is treated as read-only (defaults apply to a stack
// copy), so one Pinger may serve concurrent series as long as each
// carries its own clock — which is how the probe scheduler drives it.
func (p *Pinger) Ping(src, dst netip.Addr, count int) Series {
	cfg := *p
	cfg.defaults()
	var s Series
	// Every probe is its own flow (pings are not Paris; ECMP spreads
	// them), compiled into one buffer the series reuses.
	var path netsim.PathBuf
	for i := 0; i < count; i++ {
		flow := cfg.Net.CompileFlowInto(&path, src, dst, uint16(i))
		r := flow.Probe(cfg.Clock.Now(), 64, netsim.ICMPEcho, uint32(i))
		s.Sent++
		if r.Type == netsim.EchoReply {
			s.Received++
			if s.RTTs == nil {
				// Room for every reply still to come: the series'
				// one allocation besides its path buffer.
				s.RTTs = make([]time.Duration, 0, count-i)
			}
			s.RTTs = append(s.RTTs, r.RTT)
			cfg.Clock.Advance(r.RTT)
		} else {
			s.account(r)
			cfg.Clock.Advance(cfg.Timeout)
		}
		cfg.Clock.Advance(cfg.Interval)
	}
	return s
}

// TTLLimited sends count echo requests with the given TTL toward dst and
// collects the time-exceeded responses. Setting TTL to the penultimate
// traceroute hop measures the RTT to the device in front of dst — the
// paper's trick for latency to AT&T EdgeCO equipment that drops direct
// pings (§6.3). Probes share one flow ID so every probe takes the same
// path to the same penultimate device.
func (p *Pinger) TTLLimited(src, dst netip.Addr, ttl int, count int) (Series, netip.Addr) {
	cfg := *p
	cfg.defaults()
	var s Series
	var from netip.Addr
	fid := uint16(0x7e77)
	// Every probe rides one flow, so compile the path once and replay
	// it per attempt instead of re-resolving per probe.
	flow := cfg.Net.CompileFlow(src, dst, fid)
	for i := 0; i < count; i++ {
		r := flow.Probe(cfg.Clock.Now(), uint8(ttl), netsim.ICMPEcho, uint32(i))
		s.Sent++
		if r.Type == netsim.TTLExceeded {
			s.Received++
			s.RTTs = append(s.RTTs, r.RTT)
			from = r.From
			cfg.Clock.Advance(r.RTT)
		} else {
			s.account(r)
			cfg.Clock.Advance(cfg.Timeout)
		}
		cfg.Clock.Advance(cfg.Interval)
	}
	return s, from
}

// Outcome is the scheduler-facing result of one ping job: the series
// plus, for TTL-limited jobs, the responding device address.
type Outcome struct {
	Series
	From netip.Addr
}

// Outcomes runs one ping job per request across the pool and returns
// the outcomes in request order, with probesched.Map's clock semantics:
// a plain echo series when req.TTL is zero, the §6.3 TTL-limited series
// otherwise. Each job binds its clock on a stack copy of the pinger, so
// the per-job dispatch allocates nothing.
func (p *Pinger) Outcomes(pool *probesched.Pool, reqs []probesched.Request) []Outcome {
	return probesched.Map(pool, reqs, func(clk *vclock.Clock, req probesched.Request) Outcome {
		cfg := *p
		cfg.Clock = clk
		if req.TTL > 0 {
			s, from := cfg.TTLLimited(req.Src, req.Dst, req.TTL, req.Count)
			return Outcome{Series: s, From: from}
		}
		return Outcome{Series: cfg.Ping(req.Src, req.Dst, req.Count)}
	})
}
