package netsim

import (
	"net/netip"
	"time"
)

// DropCause explains why a probe produced no usable answer. It is
// diagnostic metadata for the measurement plane's accounting (typed
// probe outcomes, coverage reports); inference never reads it — a real
// prober cannot see why a packet vanished, only that it did. The zero
// value, DropNone, covers both successful replies and the simulator's
// pre-existing silent deaths (dead sweep addresses, DstPolicy denials).
type DropCause uint8

const (
	// DropNone: the probe was answered, or died for a non-fault reason
	// (unreachable prefix, destination policy, host not pinging).
	DropNone DropCause = iota
	// DropLoss: a link-loss draw ate the probe or its reply in flight.
	DropLoss
	// DropRateLimited: the replying device's ICMP generation was rate
	// limited (the FaultPlan's windowed limiter, or the router's
	// pre-existing ResponseProb model).
	DropRateLimited
	// DropBlackout: the replying router was inside a transient
	// control-plane blackout window.
	DropBlackout
	// DropSilent: the replying router is permanently silent.
	DropSilent
	// DropVPDown: the probing vantage point itself was offline (churn).
	DropVPDown
)

func (d DropCause) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropLoss:
		return "loss"
	case DropRateLimited:
		return "rate-limited"
	case DropBlackout:
		return "blackout"
	case DropSilent:
		return "silent"
	case DropVPDown:
		return "vp-down"
	}
	return "unknown"
}

// ProbeOutcome is the three-way classification resilient probing code
// keys its accounting on: every probe either got an answer, hit a rate
// limiter, or was lost (for whatever reason).
type ProbeOutcome uint8

const (
	// OutcomeReply: something answered (any non-timeout reply type).
	OutcomeReply ProbeOutcome = iota
	// OutcomeTimeout: nothing came back and no rate limiter is to blame.
	OutcomeTimeout
	// OutcomeRateLimited: the reply was suppressed by ICMP rate limiting.
	OutcomeRateLimited
)

// Outcome classifies the reply for probe accounting.
func (r Reply) Outcome() ProbeOutcome {
	if r.Type != Timeout {
		return OutcomeReply
	}
	if r.Drop == DropRateLimited {
		return OutcomeRateLimited
	}
	return OutcomeTimeout
}

// FaultPlan describes deterministic measurement-plane faults. Every
// fault decision is a pure splitmix-style hash of (network seed, plan
// seed, fault-specific salt, probe/router/time-window parameters) — no
// shared RNG state, no counters — so a faulted campaign remains
// byte-identical at any worker count and GOMAXPROCS, exactly like the
// fault-free simulator (see internal/probesched). Time-dependent
// faults (rate-limit windows, blackouts, VP churn) quantize the
// virtual-clock instant of the probe, which the scheduler already
// keeps schedule-independent.
//
// The zero FaultPlan (and an uninstalled plan) injects nothing: every
// reply is bit-identical to the fault-free simulator.
//
// This models *measurement* faults — who answers probes — and is
// distinct from internal/resilience, which analyzes *topology* failure
// impact on inferred graphs.
type FaultPlan struct {
	// Seed decorrelates this plan's draws from the network's own jitter
	// and rate-limit hashes (and from other plans on the same network).
	Seed uint64

	// LinkLoss is the per-link, per-direction packet loss probability.
	// Each probe draws one Bernoulli trial per link it traverses on the
	// full round trip (access links included), so longer paths lose
	// more probes — the classic compounding the paper's campaigns face.
	// Retransmissions (distinct Seq) draw independently.
	LinkLoss float64

	// ICMPRate models per-router ICMP rate limiting as a windowed duty
	// cycle driven by virtual time: a router answers probes only during
	// windows in which its token bucket, refilled at ICMPRate tokens/s
	// and observed under saturating probe load, still has tokens. A
	// window of length ICMPWindow is responsive with probability
	// min(1, ICMPRate*ICMPWindow), decided by a per-(router, window)
	// hash — so silence comes in realistic correlated bursts rather
	// than i.i.d. per-probe drops. 0 disables limiting.
	ICMPRate float64
	// ICMPWindow is the limiter's window length (default 250ms).
	ICMPWindow time.Duration

	// BlackoutFrac hash-selects this fraction of routers to suffer
	// transient control-plane blackouts: in every BlackoutPeriod each
	// selected router is fully ICMP-silent for one BlackoutDur window
	// at a per-(router, period) hashed phase. Forwarding is unaffected
	// — a blacked-out router still carries transit packets, it just
	// originates nothing, like a busy control plane.
	BlackoutFrac   float64
	BlackoutPeriod time.Duration // default 10m
	BlackoutDur    time.Duration // default 30s

	// SilentFrac hash-selects this fraction of routers to never answer
	// any probe (permanently silent hops); Silent adds explicit routers
	// on top. As with blackouts, forwarding is unaffected.
	SilentFrac float64
	Silent     []RouterID

	// VPChurnFrac hash-selects this fraction of vantage-point hosts to
	// churn: in each VPChurnPeriod window a churning VP is offline
	// (every probe it sources is dropped) with probability
	// VPOfflineFrac, decided per (VP, window). This models the ship /
	// WiFi probers whose connectivity comes and goes. OfflineVPs lists
	// VPs that are down for the whole campaign.
	VPChurnFrac   float64
	VPChurnPeriod time.Duration // default 1m
	VPOfflineFrac float64       // default 0.2
	OfflineVPs    []netip.Addr

	// Normalized lookup sets, built by SetFaultPlan.
	silentSet  map[RouterID]bool
	offlineSet map[netip.Addr]bool
}

// Draw salts keep the fault families' hash streams independent of each
// other and of the simulator's jitter/ResponseProb/ECMP draws.
const (
	saltLoss     = 0xFA017_1
	saltSilent   = 0xFA017_2
	saltBlackSel = 0xFA017_3
	saltBlackPh  = 0xFA017_4
	saltRate     = 0xFA017_5
	saltChurnSel = 0xFA017_6
	saltChurnWin = 0xFA017_7
)

// thresh maps a probability to the draw threshold in parts-per-million.
func thresh(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1_000_000
	}
	return uint64(p * 1_000_000)
}

func (p *FaultPlan) normalize() {
	if p.ICMPWindow == 0 {
		p.ICMPWindow = 250 * time.Millisecond
	}
	if p.BlackoutPeriod == 0 {
		p.BlackoutPeriod = 10 * time.Minute
	}
	if p.BlackoutDur == 0 {
		p.BlackoutDur = 30 * time.Second
	}
	if p.BlackoutDur > p.BlackoutPeriod {
		p.BlackoutDur = p.BlackoutPeriod
	}
	if p.VPChurnPeriod == 0 {
		p.VPChurnPeriod = time.Minute
	}
	if p.VPOfflineFrac == 0 {
		p.VPOfflineFrac = 0.2
	}
	if len(p.Silent) > 0 {
		p.silentSet = make(map[RouterID]bool, len(p.Silent))
		for _, id := range p.Silent {
			p.silentSet[id] = true
		}
	}
	if len(p.OfflineVPs) > 0 {
		p.offlineSet = make(map[netip.Addr]bool, len(p.OfflineVPs))
		for _, a := range p.OfflineVPs {
			p.offlineSet[a] = true
		}
	}
}

// active reports whether any fault is configured; nil-safe so the
// probe path pays one pointer load and a few compares when no plan is
// installed.
func (p *FaultPlan) active() bool {
	return p != nil && (p.LinkLoss > 0 || p.ICMPRate > 0 || p.BlackoutFrac > 0 ||
		p.SilentFrac > 0 || len(p.silentSet) > 0 ||
		p.VPChurnFrac > 0 || len(p.offlineSet) > 0)
}

// lossDrop draws one Bernoulli trial per link traversal of the probe's
// round trip; any hit loses the packet (or its reply). key is the
// probe's identity (flowHash.probeKey); the (seeds, salt, key) prefix
// of every trial's hash is folded once.
func (p *FaultPlan) lossDrop(netSeed, key uint64, links int) bool {
	th := thresh(p.LinkLoss)
	if th == 0 {
		return false
	}
	h := mix(netSeed, p.Seed, saltLoss, key)
	for i := 0; i < links; i++ {
		if mixStep(h, uint64(i))%1_000_000 < th {
			return true
		}
	}
	return false
}

// routerSilent reports whether the router never answers under this plan.
func (p *FaultPlan) routerSilent(netSeed uint64, id RouterID) bool {
	if p.silentSet[id] {
		return true
	}
	th := thresh(p.SilentFrac)
	return th > 0 && mix(netSeed, p.Seed, saltSilent, uint64(id))%1_000_000 < th
}

// blackedOut reports whether the router is inside its transient outage
// window at the given virtual instant.
func (p *FaultPlan) blackedOut(netSeed uint64, id RouterID, at time.Time) bool {
	th := thresh(p.BlackoutFrac)
	if th == 0 || mix(netSeed, p.Seed, saltBlackSel, uint64(id))%1_000_000 >= th {
		return false
	}
	period := int64(p.BlackoutPeriod)
	w := at.UnixNano() / period
	off := at.UnixNano() % period
	span := period - int64(p.BlackoutDur)
	var phase int64
	if span > 0 {
		phase = int64(mix(netSeed, p.Seed, saltBlackPh, uint64(id), uint64(w)) % uint64(span))
	}
	return off >= phase && off < phase+int64(p.BlackoutDur)
}

// rateLimited reports whether the router's ICMP limiter is dry in the
// window containing the given instant.
func (p *FaultPlan) rateLimited(netSeed uint64, id RouterID, at time.Time) bool {
	if p.ICMPRate <= 0 {
		return false
	}
	duty := p.ICMPRate * p.ICMPWindow.Seconds()
	if duty >= 1 {
		return false
	}
	w := at.UnixNano() / int64(p.ICMPWindow)
	return mix(netSeed, p.Seed, saltRate, uint64(id), uint64(w))%1_000_000 >= thresh(duty)
}

// vpOffline reports whether the probing source host is offline at the
// given instant; srcKey is u64(src), which the flow computed once.
func (p *FaultPlan) vpOffline(netSeed uint64, src netip.Addr, srcKey uint64, at time.Time) bool {
	if p.offlineSet[src] {
		return true
	}
	th := thresh(p.VPChurnFrac)
	if th == 0 {
		return false
	}
	h := srcKey
	if mix(netSeed, p.Seed, saltChurnSel, h)%1_000_000 >= th {
		return false
	}
	w := at.UnixNano() / int64(p.VPChurnPeriod)
	return mix(netSeed, p.Seed, saltChurnWin, h, uint64(w))%1_000_000 < thresh(p.VPOfflineFrac)
}

// SetFaultPlan installs (or replaces) the measurement-fault plan. The
// plan is copied and normalized, and the swap is atomic, so it is safe
// to install between probe batches while other goroutines probe; for
// reproducible campaigns install it before the first probe. Installing
// the zero FaultPlan (or never calling SetFaultPlan) leaves every
// reply bit-identical to the fault-free simulator.
func (n *Network) SetFaultPlan(p FaultPlan) {
	cp := p
	cp.normalize()
	n.faults.Store(&cp)
}

// Faults returns the installed fault plan, or nil when none was set.
func (n *Network) Faults() *FaultPlan { return n.faults.Load() }
