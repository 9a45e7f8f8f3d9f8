package netsim

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// probeAt is c.probe with an explicit virtual instant, for the
// time-windowed fault families.
func (c *chain) probeAt(at time.Time, ttl uint8) Reply {
	return c.net.Probe(at, ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl, Proto: ICMPEcho, FlowID: 7, Seq: uint32(ttl)})
}

// eqNoIPID compares replies ignoring IP-ID: the per-router counters
// advance on every reply, so two otherwise-identical probes differ
// there by design.
func eqNoIPID(a, b Reply) bool {
	a.IPID, b.IPID = 0, 0
	return a == b
}

// sweepReplies probes every TTL 1..max over a set of distinct flows and
// sequence numbers, returning all replies — enough trials for the
// statistical assertions below.
func sweepReplies(c *chain, at time.Time, maxTTL uint8, flows int) []Reply {
	var out []Reply
	for f := 0; f < flows; f++ {
		for ttl := uint8(1); ttl <= maxTTL; ttl++ {
			out = append(out, c.net.Probe(at, ProbeSpec{
				Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl,
				Proto: ICMPEcho, FlowID: uint16(f), Seq: uint32(f)<<8 | uint32(ttl),
			}))
		}
	}
	return out
}

func TestEmptyFaultPlanBitIdentical(t *testing.T) {
	base := buildChain(t, 4)
	faulted := buildChain(t, 4)
	faulted.net.SetFaultPlan(FaultPlan{})
	for ttl := uint8(1); ttl <= 6; ttl++ {
		a, b := base.probe(ttl), faulted.probe(ttl)
		if a != b {
			t.Fatalf("TTL %d: empty plan changed reply: %+v vs %+v", ttl, a, b)
		}
		if b.Drop != DropNone {
			t.Fatalf("TTL %d: empty plan set Drop=%v", ttl, b.Drop)
		}
	}
}

func TestLinkLossMonotoneAndTotal(t *testing.T) {
	rates := []float64{0, 0.05, 0.2, 1}
	var lost []int
	for _, loss := range rates {
		c := buildChain(t, 4)
		c.net.SetFaultPlan(FaultPlan{Seed: 9, LinkLoss: loss})
		n := 0
		for _, r := range sweepReplies(c, t0, 5, 40) {
			if r.Drop == DropLoss {
				n++
			}
		}
		lost = append(lost, n)
	}
	for i := 1; i < len(lost); i++ {
		if lost[i] < lost[i-1] {
			t.Errorf("loss rate %v dropped %d probes, less than rate %v's %d", rates[i], lost[i], rates[i-1], lost[i-1])
		}
	}
	if lost[0] != 0 {
		t.Errorf("zero loss rate still dropped %d probes", lost[0])
	}
	if want := 5 * 40; lost[len(lost)-1] != want {
		t.Errorf("loss=1 dropped %d of %d probes", lost[len(lost)-1], want)
	}
}

func TestLossCompoundsWithPathLength(t *testing.T) {
	// Per-link trials mean deeper TTLs on the same flow lose more often.
	c := buildChain(t, 8)
	c.net.SetFaultPlan(FaultPlan{Seed: 3, LinkLoss: 0.10})
	countLost := func(ttl uint8) int {
		n := 0
		for f := 0; f < 400; f++ {
			r := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl,
				Proto: ICMPEcho, FlowID: uint16(f), Seq: uint32(f)})
			if r.Drop == DropLoss {
				n++
			}
		}
		return n
	}
	near, far := countLost(1), countLost(7)
	if far <= near {
		t.Errorf("deep hop lost %d <= shallow hop's %d; loss should compound with path length", far, near)
	}
}

func TestSilentRouterForwardsButNeverReplies(t *testing.T) {
	c := buildChain(t, 4)
	c.net.SetFaultPlan(FaultPlan{Silent: []RouterID{c.rs[1].ID}})
	// TTL 1 expires at rs[1] (the source router rs[0] consumes no TTL).
	if r := c.probe(1); r.Type != Timeout || r.Drop != DropSilent {
		t.Fatalf("silent hop replied: %+v", r)
	}
	// Routers beyond it still answer — forwarding is unaffected.
	if r := c.probe(2); r.Type != TTLExceeded {
		t.Fatalf("hop beyond silent router = %+v, want ttl-exceeded", r)
	}
	// The destination host beyond it answers too.
	if r := c.probe(6); r.Type != EchoReply {
		t.Fatalf("host beyond silent router = %+v, want echo-reply", r)
	}
}

func TestSilentFracSelectsDeterministically(t *testing.T) {
	c1 := buildChain(t, 6)
	c1.net.SetFaultPlan(FaultPlan{Seed: 5, SilentFrac: 0.5})
	c2 := buildChain(t, 6)
	c2.net.SetFaultPlan(FaultPlan{Seed: 5, SilentFrac: 0.5})
	anySilent := false
	for ttl := uint8(1); ttl <= 5; ttl++ {
		a, b := c1.probe(ttl), c2.probe(ttl)
		if a != b {
			t.Fatalf("TTL %d: same plan, different replies: %+v vs %+v", ttl, a, b)
		}
		if a.Drop == DropSilent {
			anySilent = true
		}
	}
	if !anySilent {
		t.Error("SilentFrac 0.5 over 5 probed routers silenced none")
	}
}

func TestBlackoutWindows(t *testing.T) {
	c := buildChain(t, 3)
	c.net.SetFaultPlan(FaultPlan{
		Seed:           11,
		BlackoutFrac:   1, // every router blacks out
		BlackoutPeriod: time.Minute,
		BlackoutDur:    10 * time.Second,
	})
	// Scan one period in 1s steps: the hop must be silent for exactly
	// the blackout duration and answer otherwise.
	dark := 0
	for sec := 0; sec < 60; sec++ {
		r := c.probeAt(t0.Add(time.Duration(sec)*time.Second), 1)
		switch {
		case r.Type == TTLExceeded && r.Drop == DropNone:
		case r.Type == Timeout && r.Drop == DropBlackout:
			dark++
		default:
			t.Fatalf("t+%ds: unexpected reply %+v", sec, r)
		}
	}
	if dark < 9 || dark > 11 {
		t.Errorf("blackout covered %d of 60 one-second samples, want ~10", dark)
	}
	// Identical instants give identical answers (determinism; IP-ID
	// counters advance per reply so that field is excluded).
	a := c.probeAt(t0.Add(17*time.Second), 1)
	b := c.probeAt(t0.Add(17*time.Second), 1)
	if !eqNoIPID(a, b) {
		t.Errorf("same instant, different replies: %+v vs %+v", a, b)
	}
}

func TestRateLimitWindowedAndMonotone(t *testing.T) {
	// With window 250ms and rate 2/s, duty = 0.5: about half of all
	// windows are silent, and all probes within one window agree.
	answered := func(rate float64) int {
		c := buildChain(t, 3)
		c.net.SetFaultPlan(FaultPlan{Seed: 21, ICMPRate: rate, ICMPWindow: 250 * time.Millisecond})
		n := 0
		for w := 0; w < 200; w++ {
			at := t0.Add(time.Duration(w) * 250 * time.Millisecond)
			r := c.probeAt(at, 1)
			r2 := c.probeAt(at.Add(100*time.Millisecond), 1)
			if (r.Type == Timeout) != (r2.Type == Timeout) {
				t.Fatalf("rate %v window %d: probes in one window disagree: %v vs %v", rate, w, r.Type, r2.Type)
			}
			if r.Type == TTLExceeded {
				n++
			} else if r.Drop != DropRateLimited {
				t.Fatalf("rate %v window %d: drop = %v, want rate-limited", rate, w, r.Drop)
			}
		}
		return n
	}
	lo, mid := answered(0.8), answered(2)
	if lo >= mid {
		t.Errorf("rate 0.8/s answered %d windows, rate 2/s answered %d; higher rate should answer more", lo, mid)
	}
	if mid < 60 || mid > 140 {
		t.Errorf("duty 0.5 answered %d of 200 windows, want ~100", mid)
	}
	// Duty >= 1 disables the limiter entirely.
	if n := answered(10); n != 200 {
		t.Errorf("rate 10/s (duty 2.5) answered %d of 200 windows, want all", n)
	}
}

func TestVPChurnAndOfflineVPs(t *testing.T) {
	c := buildChain(t, 3)
	c.net.SetFaultPlan(FaultPlan{OfflineVPs: []netip.Addr{c.vp.Addr}})
	if r := c.probe(1); r.Type != Timeout || r.Drop != DropVPDown {
		t.Fatalf("offline VP probed successfully: %+v", r)
	}

	// Churn: with frac 1 and offline-frac 0.5, roughly half the minutes
	// are dead, deterministically per window.
	c2 := buildChain(t, 3)
	c2.net.SetFaultPlan(FaultPlan{Seed: 4, VPChurnFrac: 1, VPChurnPeriod: time.Minute, VPOfflineFrac: 0.5})
	down := 0
	for m := 0; m < 120; m++ {
		at := t0.Add(time.Duration(m) * time.Minute)
		r := c2.probeAt(at, 1)
		r2 := c2.probeAt(at.Add(30*time.Second), 1)
		if (r.Drop == DropVPDown) != (r2.Drop == DropVPDown) {
			t.Fatalf("minute %d: churn state flipped within one window", m)
		}
		if r.Drop == DropVPDown {
			down++
		}
	}
	if down < 40 || down > 80 {
		t.Errorf("VP down %d of 120 minutes, want ~60", down)
	}
}

func TestFlowProbeMatchesNetworkProbeUnderFaults(t *testing.T) {
	c := buildChain(t, 5)
	c.net.SetFaultPlan(FaultPlan{
		Seed:         13,
		LinkLoss:     0.15,
		ICMPRate:     1.5,
		BlackoutFrac: 0.4,
		SilentFrac:   0.2,
		VPChurnFrac:  0.5,
	})
	flow := c.net.CompileFlow(c.vp.Addr, c.target.Addr, 7)
	for seq := uint32(0); seq < 8; seq++ {
		for ttl := uint8(1); ttl <= 7; ttl++ {
			at := t0.Add(time.Duration(seq) * 40 * time.Second)
			want := c.net.Probe(at, ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: ttl,
				Proto: ICMPEcho, FlowID: 7, Seq: seq})
			got := flow.Probe(at, ttl, ICMPEcho, seq)
			if !eqNoIPID(got, want) {
				t.Fatalf("seq %d TTL %d: Flow.Probe %+v != Network.Probe %+v", seq, ttl, got, want)
			}
		}
	}

	// An offline VP sends nothing, so both entry points report it as
	// down even toward a destination the network cannot resolve.
	c.net.SetFaultPlan(FaultPlan{OfflineVPs: []netip.Addr{c.vp.Addr}})
	nowhere := addr("203.0.113.9")
	flow = c.net.CompileFlow(c.vp.Addr, nowhere, 7)
	for ttl := uint8(1); ttl <= 3; ttl++ {
		want := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: nowhere, TTL: ttl, Proto: ICMPEcho, FlowID: 7, Seq: uint32(ttl)})
		got := flow.Probe(t0, ttl, ICMPEcho, uint32(ttl))
		if got != want || want.Type != Timeout || want.Drop != DropVPDown {
			t.Fatalf("TTL %d to an unresolvable destination from an offline VP: Flow.Probe %+v, Network.Probe %+v, want both vp-down", ttl, got, want)
		}
	}
}

func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		r    Reply
		want ProbeOutcome
	}{
		{Reply{Type: EchoReply}, OutcomeReply},
		{Reply{Type: TTLExceeded}, OutcomeReply},
		{Reply{Type: PortUnreachable}, OutcomeReply},
		{Reply{Type: Timeout}, OutcomeTimeout},
		{Reply{Type: Timeout, Drop: DropLoss}, OutcomeTimeout},
		{Reply{Type: Timeout, Drop: DropVPDown}, OutcomeTimeout},
		{Reply{Type: Timeout, Drop: DropRateLimited}, OutcomeRateLimited},
	}
	for i, tc := range cases {
		if got := tc.r.Outcome(); got != tc.want {
			t.Errorf("case %d (%v/%v): outcome = %v, want %v", i, tc.r.Type, tc.r.Drop, got, tc.want)
		}
	}
}

func TestRetransmissionsDrawIndependently(t *testing.T) {
	// Distinct Seq values must see independent loss draws — that is
	// what makes retries worthwhile.
	c := buildChain(t, 4)
	c.net.SetFaultPlan(FaultPlan{Seed: 2, LinkLoss: 0.3})
	varies := false
	var first Reply
	for seq := uint32(0); seq < 32; seq++ {
		r := c.net.Probe(t0, ProbeSpec{Src: c.vp.Addr, Dst: c.target.Addr, TTL: 2,
			Proto: ICMPEcho, FlowID: 7, Seq: seq})
		if seq == 0 {
			first = r
		} else if (r.Type == Timeout) != (first.Type == Timeout) {
			varies = true
		}
	}
	if !varies {
		t.Error("32 retransmissions at 30% loss all agreed; Seq should vary the loss draw")
	}
}

func TestFaultPlanString(t *testing.T) {
	for d := DropNone; d <= DropVPDown; d++ {
		if s := d.String(); s == "" || s == "unknown" {
			t.Errorf("DropCause(%d).String() = %q", d, s)
		}
	}
	if s := DropCause(99).String(); s != "unknown" {
		t.Errorf("invalid DropCause string = %q", s)
	}
	_ = fmt.Sprint(DropLoss)
}
