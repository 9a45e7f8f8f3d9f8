package netsim

import (
	"net/netip"
	"time"
)

// Proto selects the probe type.
type Proto uint8

const (
	// ICMPEcho is an ICMP echo request (ping / icmp-paris traceroute).
	ICMPEcho Proto = iota
	// UDP is a UDP datagram to a high port (classic traceroute probe and
	// Mercator's alias probe).
	UDP
)

// ReplyType classifies what came back for a probe.
type ReplyType uint8

const (
	// Timeout means nothing came back.
	Timeout ReplyType = iota
	// TTLExceeded is an ICMP time-exceeded from an intermediate router.
	TTLExceeded
	// EchoReply is the destination answering a ping.
	EchoReply
	// PortUnreachable is an ICMP destination-unreachable (port) from the
	// destination of a UDP probe.
	PortUnreachable
)

func (t ReplyType) String() string {
	switch t {
	case Timeout:
		return "timeout"
	case TTLExceeded:
		return "ttl-exceeded"
	case EchoReply:
		return "echo-reply"
	case PortUnreachable:
		return "port-unreachable"
	}
	return "unknown"
}

// ProbeSpec describes one probe packet.
type ProbeSpec struct {
	// Src must be a registered Host address (the vantage point).
	Src   netip.Addr
	Dst   netip.Addr
	TTL   uint8
	Proto Proto
	// FlowID keeps ECMP decisions stable: probes sharing a FlowID take
	// identical paths (Paris traceroute invariant).
	FlowID uint16
	// Seq distinguishes retransmissions for jitter and rate-limit draws.
	Seq uint32
}

// Reply is what the prober observes. The zero Reply is a Timeout.
type Reply struct {
	Type ReplyType
	// From is the source address of the response packet.
	From netip.Addr
	RTT  time.Duration
	// ReplyTTL is the TTL remaining on the response when it arrived,
	// the signal Appendix C's figures display (reply-ttl column).
	ReplyTTL uint8
	// IPID is the IP identifier of the response, the signal MIDAR uses.
	IPID uint16
	// Drop records why a Timeout happened when an injected fault is to
	// blame (see DropCause); DropNone otherwise. Accounting metadata
	// only — inference must never branch on it.
	Drop DropCause
}

// resolveDst locates the router that serves dst and whether dst is a
// live host, a router interface, or a bare covered prefix.
type dstKind uint8

const (
	dstNone dstKind = iota
	dstHost
	dstIface
	dstPrefixOnly
)

func (n *Network) resolveDst(dst netip.Addr) (dstKind, *Router, *Host, *Iface) {
	if h, ok := n.hosts[dst]; ok {
		return dstHost, h.Router, h, nil
	}
	if ifc, ok := n.ifaces[dst]; ok {
		return dstIface, ifc.Router, nil, ifc
	}
	if dst.Is4() && n.prefix24 != nil {
		if po, ok := n.prefix24[netip.PrefixFrom(dst, 24).Masked().Addr()]; ok {
			return dstPrefixOnly, po.router, nil, nil
		}
	}
	if po := n.lpm().lookup(dst); po != nil {
		return dstPrefixOnly, po.router, nil, nil
	}
	return dstNone, nil, nil, nil
}

// visibleHop is a hop that consumes TTL (MPLS-hidden hops removed).
type visibleHop struct {
	router *Router
	in     *Iface
	delay  time.Duration
	// hops is the count of physical routers traversed from the source
	// up to and including this one (for processing-delay accounting).
	hops int
}

// visiblePath applies MPLS no-ttl-propagate semantics to a router path:
// hops strictly inside a tunnel are removed unless the probe is addressed
// to an interface of the egress or of an interior router (Direct Path
// Revelation, per Vanaubel et al.). Probes toward hosts or bare prefixes
// beyond the egress ride the LSP and never see the interior. The source
// router itself is not included in the result.
func (n *Network) visiblePath(path []pathHop, dstRouter *Router, dstIsRouterAddr bool) []visibleHop {
	// Router paths are a handful of hops, so position lookups scan the
	// path directly and the hidden mask lives on the stack — a map and a
	// heap slice per compiled flow otherwise.
	pos := func(id RouterID) (int, bool) {
		for i, h := range path {
			if h.router.ID == id {
				return i, true
			}
		}
		return 0, false
	}
	var hiddenBuf [64]bool
	var hidden []bool
	if len(path) <= len(hiddenBuf) {
		hidden = hiddenBuf[:len(path)]
	} else {
		hidden = make([]bool, len(path))
	}
	dstPos := len(path) // beyond every hop unless the dst is a router
	if dstIsRouterAddr {
		if p, ok := pos(dstRouter.ID); ok {
			dstPos = p
		}
	}
	for i, h := range path {
		for _, t := range n.tunnels[h.router.ID] {
			e, ok := pos(t.Egress.ID)
			if !ok || e <= i {
				continue
			}
			// DPR: destinations on or before the egress keep the
			// interior visible.
			if dstPos <= e {
				continue
			}
			for j := i + 1; j < e; j++ {
				hidden[j] = true
			}
		}
	}
	out := make([]visibleHop, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		if hidden[i] {
			continue
		}
		out = append(out, visibleHop{
			router: path[i].router,
			in:     path[i].in,
			delay:  path[i].delay,
			hops:   i,
		})
	}
	return out
}

// compiledPath is the replayable result of routerPath + visiblePath for
// one (src router, dst router, flow ID, dst-is-router-address) tuple:
// everything the visible hop sequence depends on. It is immutable once
// built: probes index into vis but never write it, so one copy serves
// any number of goroutines.
type compiledPath struct {
	reachable bool
	// vis is the TTL-consuming hop sequence with MPLS-hidden hops
	// already removed (the source router is not included).
	vis []visibleHop
}

// compilePath walks the flow's router path and applies MPLS visibility
// to it. Nothing is cached: the caller owns the result (a Flow keeps it
// for replay, Probe drops it after one answer).
func (n *Network) compilePath(src, dst RouterID, flowID uint16, toRouterAddr bool) *compiledPath {
	cp := &compiledPath{}
	var buf [64]pathHop
	if path := n.routerPath(buf[:], src, dst, flowID); path != nil {
		cp.reachable = true
		cp.vis = n.visiblePath(path, n.routers[dst], toRouterAddr)
	}
	return cp
}

// Probe injects one probe at virtual time `at` and returns the response.
//
// This is the convenience entry point: it resolves the destination
// through the compiled FIB and compiles the flow's visible path on
// every call. Callers that send many probes along one flow, such as a
// traceroute walking TTLs, should compile the flow once with
// CompileFlow and replay it.
func (n *Network) Probe(at time.Time, s ProbeSpec) Reply {
	srcHost, ok := n.hosts[s.Src]
	if !ok {
		return Reply{Type: Timeout}
	}
	kind, dstRouter, dHost, dIface := n.resolveDst(s.Dst)
	if kind == dstNone || dstRouter == nil {
		return Reply{Type: Timeout}
	}
	cp := n.compilePath(srcHost.Router.ID, dstRouter.ID, s.FlowID, kind == dstIface)
	return n.replay(at, s, srcHost, kind, dstRouter, dHost, dIface, cp)
}

// replay answers one probe from a compiled path. It allocates nothing:
// every hop decision indexes into the immutable compiled hop sequence.
func (n *Network) replay(at time.Time, s ProbeSpec, srcHost *Host, kind dstKind, dstRouter *Router, dHost *Host, dIface *Iface, cp *compiledPath) Reply {
	plan := n.faults.Load()
	if !plan.active() {
		plan = nil
	}
	if plan != nil && plan.vpOffline(n.seed, s.Src, at) {
		return Reply{Type: Timeout, Drop: DropVPDown}
	}
	if s.TTL == 0 || !cp.reachable {
		return Reply{Type: Timeout}
	}
	vis := cp.vis

	// Number of TTL-consuming hops to reach the destination endpoint:
	// each visible router is one, plus one more when the destination is
	// a host behind the final router.
	hopsToDst := len(vis)
	if kind == dstHost {
		hopsToDst++
	}

	if int(s.TTL) <= len(vis) && int(s.TTL) < hopsToDst {
		// Expires at an intermediate router.
		h := vis[s.TTL-1]
		return n.routerReply(at, s, srcHost, h, TTLExceeded, plan)
	}
	if int(s.TTL) < hopsToDst {
		return Reply{Type: Timeout}
	}

	// Probe reaches the destination.
	switch kind {
	case dstHost:
		return n.hostReply(at, s, srcHost, dHost, vis, plan)
	case dstIface:
		var h visibleHop
		if len(vis) == 0 {
			// Destination router is the VP's own gateway.
			h = visibleHop{router: dstRouter, in: dIface, delay: 0, hops: 0}
		} else {
			h = vis[len(vis)-1]
			h.in = dIface // echo/udp responses come from the probed address
		}
		kindReply := EchoReply
		if s.Proto == UDP {
			kindReply = PortUnreachable
		}
		return n.routerReply(at, s, srcHost, h, kindReply, plan)
	default: // dstPrefixOnly: address not live; the packet dies silently.
		return Reply{Type: Timeout}
	}
}

// Flow is a compiled probe flow: the source host, the resolved
// destination, and the visible hop sequence for one (src, dst, flowID)
// triple, with MPLS tunnel spans already applied. Compiling once and
// replaying answers each TTL with pure indexing — no map lookups, path
// walks, or allocations per probe — which is what makes TTL sweeps
// (traceroute) cheap.
//
// A Flow is immutable and safe for concurrent use, but it snapshots the
// topology: like an in-flight probe, it must not outlive a topology
// mutation (Connect, AddTunnel, InvalidateRoutes).
type Flow struct {
	net       *Network
	src, dst  netip.Addr
	flowID    uint16
	srcHost   *Host
	kind      dstKind
	dstRouter *Router
	dstHost   *Host
	dstIface  *Iface
	cp        *compiledPath
}

// unreachableFlow answers every probe with a timeout.
var unreachableFlow = &compiledPath{}

// CompileFlow resolves src, dst, and the flow's forwarding path once.
// The returned Flow answers probes for any TTL, protocol, and sequence
// number of that flow; an unresolvable source or destination yields a
// Flow whose probes all time out, exactly as Probe would.
func (n *Network) CompileFlow(src, dst netip.Addr, flowID uint16) Flow {
	f := Flow{net: n, src: src, dst: dst, flowID: flowID, cp: unreachableFlow}
	srcHost, ok := n.hosts[src]
	if !ok {
		return f
	}
	f.srcHost = srcHost
	kind, dstRouter, dHost, dIface := n.resolveDst(dst)
	if kind == dstNone || dstRouter == nil {
		return f
	}
	f.kind = kind
	f.dstRouter = dstRouter
	f.dstHost = dHost
	f.dstIface = dIface
	f.cp = n.compilePath(srcHost.Router.ID, dstRouter.ID, flowID, kind == dstIface)
	return f
}

// HopsToDst returns the number of TTL-consuming hops a probe needs to
// reach the destination endpoint: one per visible router, plus one when
// the destination is a host behind the final router. It returns 0 when
// the destination is unresolvable or unreachable — callers sizing hop
// buffers should treat that as "unknown".
func (f *Flow) HopsToDst() int {
	if !f.cp.reachable {
		return 0
	}
	h := len(f.cp.vis)
	if f.kind == dstHost {
		h++
	}
	return h
}

// Probe replays the compiled flow for one TTL. It is equivalent to —
// and bit-identical with — Network.Probe with the same parameters.
func (f *Flow) Probe(at time.Time, ttl uint8, proto Proto, seq uint32) Reply {
	if f.srcHost == nil {
		return Reply{Type: Timeout}
	}
	s := ProbeSpec{Src: f.src, Dst: f.dst, TTL: ttl, Proto: proto, FlowID: f.flowID, Seq: seq}
	return f.net.replay(at, s, f.srcHost, f.kind, f.dstRouter, f.dstHost, f.dstIface, f.cp)
}

// routerReply builds a response originated by a router, applying the
// router's ICMP policies and any injected faults. A router in
// ReplyCanonical mode answers from its fixed address even when the
// probe was addressed to a different interface — the signal
// Mercator-style alias resolution exploits.
//
// Fault ordering: policy denials first (they are intrinsic, not
// faults), then in-flight loss, then control-plane silence (permanent,
// blackout, rate limit), then the router's own ResponseProb draw. Each
// check is a pure hash, so the ordering only decides which DropCause a
// multiply-doomed probe reports.
func (n *Network) routerReply(at time.Time, s ProbeSpec, src *Host, h visibleHop, typ ReplyType, plan *FaultPlan) Reply {
	r := h.router
	if typ != TTLExceeded {
		switch r.DstPolicy {
		case DstClosed:
			return Reply{Type: Timeout}
		case DstInternalOnly:
			if src.ISP != r.ISP {
				return Reply{Type: Timeout}
			}
		}
	}
	if plan != nil {
		// Round trip traverses each of the h.hops+1 links (access link
		// included) in both directions.
		if plan.lossDrop(n.seed, s, 2*(h.hops+1)) {
			return Reply{Type: Timeout, Drop: DropLoss}
		}
		if plan.routerSilent(n.seed, r.ID) {
			return Reply{Type: Timeout, Drop: DropSilent}
		}
		if plan.blackedOut(n.seed, r.ID, at) {
			return Reply{Type: Timeout, Drop: DropBlackout}
		}
		if plan.rateLimited(n.seed, r.ID, at) {
			return Reply{Type: Timeout, Drop: DropRateLimited}
		}
	}
	if r.ResponseProb < 1 {
		draw := float64(mix(n.seed, 0xA11CE, u64(s.Src), u64(s.Dst), uint64(s.TTL), uint64(s.Seq))%1_000_000) / 1_000_000
		if draw >= r.ResponseProb {
			// ResponseProb has always modelled ICMP rate limiting
			// (see Router docs), so classify its silence accordingly.
			return Reply{Type: Timeout, Drop: DropRateLimited}
		}
	}
	from := r.Canonical
	replyIface := (*Iface)(nil)
	if r.ReplyAddr == ReplyInbound && h.in != nil {
		from = h.in.Addr
		replyIface = h.in
	}
	rtt := n.rtt(s, src, h.delay, h.hops, 0)
	return Reply{
		Type:     typ,
		From:     from,
		RTT:      rtt,
		ReplyTTL: replyTTL(255, h.hops),
		IPID:     r.nextIPID(at, replyIface),
	}
}

func (n *Network) hostReply(at time.Time, s ProbeSpec, src, dst *Host, vis []visibleHop, plan *FaultPlan) Reply {
	if !dst.RespondsToPing {
		return Reply{Type: Timeout}
	}
	var pathDelay time.Duration
	hops := 0
	if len(vis) > 0 {
		last := vis[len(vis)-1]
		pathDelay = last.delay
		hops = last.hops
	}
	// Round trip crosses hops+2 links (transit plus both access links)
	// in each direction.
	if plan != nil && plan.lossDrop(n.seed, s, 2*(hops+2)) {
		return Reply{Type: Timeout, Drop: DropLoss}
	}
	typ := EchoReply
	if s.Proto == UDP {
		typ = PortUnreachable
	}
	rtt := n.rtt(s, src, pathDelay, hops, dst.AccessDelay)
	return Reply{
		Type:     typ,
		From:     dst.Addr,
		RTT:      rtt,
		ReplyTTL: replyTTL(64, hops+1),
		IPID:     uint16(mix(n.seed, 0x1D, u64(dst.Addr), uint64(s.Seq))),
	}
}

// rtt assembles a round-trip time: symmetric propagation, per-router
// processing both ways, both access links, and bounded per-probe jitter.
func (n *Network) rtt(s ProbeSpec, src *Host, oneWay time.Duration, hops int, dstAccess time.Duration) time.Duration {
	rtt := 2*oneWay + 2*src.AccessDelay + 2*dstAccess
	rtt += time.Duration(2*hops) * n.ProcessingDelay
	if n.JitterMax > 0 {
		j := time.Duration(mix(n.seed, 0x717, u64(s.Src), u64(s.Dst), uint64(s.TTL), uint64(s.Seq)) % uint64(n.JitterMax))
		rtt += j
	}
	return rtt
}

func replyTTL(initial int, hopsBack int) uint8 {
	v := initial - hopsBack
	if v < 0 {
		v = 0
	}
	return uint8(v)
}

// u64 folds an address into a hash input.
func u64(a netip.Addr) uint64 {
	b := a.As16()
	var h uint64
	for i := 0; i < 16; i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w = w<<8 | uint64(b[i+j])
		}
		h = mix(h, w)
	}
	return h
}

// nextIPID advances and returns the router's IP-ID for a reply sent at
// the given virtual time from the given interface (nil for canonical).
// The counters are atomics so concurrent probes never race; their value
// after a batch of probes depends only on how many replies each counter
// produced, not on the interleaving, which keeps the (strictly
// sequential) MIDAR stage deterministic after a parallel campaign.
func (r *Router) nextIPID(at time.Time, ifc *Iface) uint16 {
	switch r.IPID {
	case IPIDRandom:
		return uint16(mix(uint64(r.ID), 0x5EED, uint64(at.UnixNano())))
	case IPIDPerInterface:
		if ifc == nil {
			return uint16(r.ipidBase.Add(1))
		}
		base := mix(uint64(r.ID), u64(ifc.Addr)) // independent counter origins
		return uint16(base + ifc.perIfIPID.Add(1) + uint64(float64(at.Unix())*r.IPIDVelocity))
	default: // IPIDShared
		elapsed := float64(at.UnixNano()) / 1e9
		return uint16(uint64(r.ID)*7919 + r.ipidBase.Add(1) + uint64(elapsed*r.IPIDVelocity))
	}
}
