package netsim

import (
	"encoding/binary"
	"net/netip"
	"slices"
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
// Revelation, per Vanaubel et al.), which is then the path's last
// router. Probes toward hosts or bare prefixes beyond the egress ride
// the LSP and never see the interior. The source router itself is not
// included in the result, which is written over out's storage (grown
// only when it is too small).
//
// Of the LSPs one hop originates, the one whose egress lies farthest
// along the path (short of a router destination) hides a superset of
// what the others hide. So each ingress asks its sorted egress set
// about the later hops, farthest first, and stops at the first hit;
// the hidden hops are then one running bound.
func visiblePath(out []visibleHop, path []pathHop, toRouterAddr bool) []visibleHop {
	if need := len(path) - 1; cap(out) < need {
		out = make([]visibleHop, 0, need)
	}
	out = out[:0]
	end := len(path) // an egress hides hops only when it lies before end
	if toRouterAddr {
		end--
	}
	hideBefore := 0 // hops before this index, after some ingress, ride an LSP
	for i, h := range path {
		if i > 0 && i >= hideBefore {
			out = append(out, visibleHop{router: h.router, in: h.in, delay: h.delay, hops: i})
		}
		for e := end - 1; e > max(i+1, hideBefore) && len(h.router.lspEgress) > 0; e-- {
			if _, ok := slices.BinarySearch(h.router.lspEgress, path[e].router.ID); ok {
				hideBefore = e
				break
			}
		}
	}
	return out
}

// Probe injects one probe at virtual time `at` and returns the response.
//
// This is the convenience entry point: it compiles a one-shot flow for
// the probe (destination resolution through the compiled FIB, the
// visible path, the flow's hash prefixes) and replays it, so it answers
// exactly as Flow.Probe does. Callers that send many probes along one
// flow, such as a traceroute walking TTLs, should compile the flow once
// with CompileFlow and replay it.
func (n *Network) Probe(at time.Time, s ProbeSpec) Reply {
	f := n.CompileFlow(s.Src, s.Dst, s.FlowID)
	return f.Probe(at, s.TTL, s.Proto, s.Seq)
}

// Hash salts of the per-probe draws keyed by the flow's addresses.
const (
	saltResponse = 0xA11CE // the router's ResponseProb draw
	saltJitter   = 0x717   // RTT jitter
	saltHostIPID = 0x1D    // a host's hashed IP-ID
)

// flowHash holds a flow's fixed hash prefixes. Every per-probe draw
// keyed by the flow's addresses hashes (seed, salt, u64(src), u64(dst))
// before the probe's own TTL and sequence number; mix is a sequential
// fold, so the prefix state is computed once at compile time and each
// probe finishes it with its own fields (see mixStep).
type flowHash struct {
	src    uint64 // u64(src): the fault plan's VP-churn key
	resp   uint64 // mix state after (seed, saltResponse, u64(src), u64(dst))
	jitter uint64 // mix state after (seed, saltJitter, u64(src), u64(dst))
	host   uint64 // mix state after (seed, saltHostIPID, u64(dst))
	probe  uint64 // mix state after (u64(src), u64(dst)): the loss key's prefix
}

func newFlowHash(seed uint64, src, dst netip.Addr) flowHash {
	s, d := u64(src), u64(dst)
	return flowHash{
		src:    s,
		resp:   mix(seed, saltResponse, s, d),
		jitter: mix(seed, saltJitter, s, d),
		host:   mix(seed, saltHostIPID, d),
		probe:  mix(s, d),
	}
}

// responseDraw is the ResponseProb draw of one probe.
func (h *flowHash) responseDraw(ttl uint8, seq uint32) uint64 {
	return mixStep(mixStep(h.resp, uint64(ttl)), uint64(seq))
}

// jitterDraw is the RTT jitter draw of one probe.
func (h *flowHash) jitterDraw(ttl uint8, seq uint32) uint64 {
	return mixStep(mixStep(h.jitter, uint64(ttl)), uint64(seq))
}

// hostIPID is the destination host's IP-ID for the probe's reply.
func (h *flowHash) hostIPID(seq uint32) uint16 {
	return uint16(mixStep(h.host, uint64(seq)))
}

// probeKey folds the probe identity into one hash input for the fault
// plan's loss trials, so each retransmission (distinct seq) draws fresh
// trials while repeats of the identical packet draw identically.
func (h *flowHash) probeKey(ttl uint8, proto Proto, seq uint32, flowID uint16) uint64 {
	k := mixStep(mixStep(h.probe, uint64(ttl)), uint64(seq))
	return mixStep(mixStep(k, uint64(flowID)), uint64(proto))
}

// Flow is a compiled probe flow: the source host, the resolved
// destination, the visible hop sequence for one (src, dst, flowID)
// triple with MPLS tunnel spans already applied, and the hash prefixes
// of the flow's per-probe draws. Compiling once and replaying answers
// each TTL with pure indexing and a few hash steps — no map lookups,
// path walks, address hashing or allocations per probe — which is what
// makes TTL sweeps (traceroute) and MIDAR's repeated probes cheap.
//
// A Flow is immutable and safe for concurrent use, but it snapshots the
// topology: like an in-flight probe, it must not outlive a topology
// mutation (Connect, AddTunnel, InvalidateRoutes). A Flow compiled into
// a PathBuf is valid only until the next compile into that buffer.
type Flow struct {
	net       *Network
	src, dst  netip.Addr
	flowID    uint16
	srcHost   *Host
	kind      dstKind
	dstRouter *Router
	dstHost   *Host
	dstIface  *Iface
	// reachable reports whether the destination router can be reached
	// at all; vis is then the TTL-consuming hop sequence with
	// MPLS-hidden hops already removed (the source router is not
	// included). Probes index into vis but never write it.
	reachable bool
	vis       []visibleHop
	hash      flowHash
}

// PathBuf is reusable storage for a compiled flow's path. A caller that
// compiles one flow after another on one goroutine — a traceroute
// worker, a ping series — compiles each into the same PathBuf with
// CompileFlowInto, so after the buffer has grown to the longest path
// seen a compile allocates nothing. The zero PathBuf is ready to use.
// A Flow holds the hops, not the buffer, so a PathBuf declared in a
// function stays on its stack.
type PathBuf struct {
	hops []visibleHop
}

// CompileFlow resolves src, dst, and the flow's forwarding path once.
// The returned Flow answers probes for any TTL, protocol, and sequence
// number of that flow; an unresolvable source or destination yields a
// Flow whose probes all time out, exactly as Probe would. The Flow owns
// its path, so it may be kept and shared (MIDAR keeps one per target).
func (n *Network) CompileFlow(src, dst netip.Addr, flowID uint16) Flow {
	return n.CompileFlowInto(nil, src, dst, flowID)
}

// CompileFlowInto is CompileFlow writing the flow's path into buf
// instead of fresh storage; a nil buf allocates fresh hops. The Flow
// reads buf's hops on every probe, so it is valid until buf is compiled
// into again.
func (n *Network) CompileFlowInto(buf *PathBuf, src, dst netip.Addr, flowID uint16) Flow {
	f := Flow{net: n, src: src, dst: dst, flowID: flowID}
	srcHost, ok := n.hosts[src]
	if !ok {
		return f
	}
	f.srcHost = srcHost
	f.hash = newFlowHash(n.seed, src, dst)
	kind, dstRouter, dHost, dIface := n.resolveDst(dst)
	if kind == dstNone || dstRouter == nil {
		return f
	}
	f.kind = kind
	f.dstRouter = dstRouter
	f.dstHost = dHost
	f.dstIface = dIface
	// The router walk is scratch (visiblePath copies what it keeps), so
	// it lives on the stack unless the path is longer than 64 routers.
	var stack [64]pathHop
	path := n.routerPath(stack[:], srcHost.Router.ID, dstRouter.ID, flowID)
	if path == nil {
		return f
	}
	if buf == nil {
		buf = &PathBuf{}
	}
	buf.hops = visiblePath(buf.hops, path, kind == dstIface)
	f.vis, f.reachable = buf.hops, true
	return f
}

// HopsToDst returns the number of TTL-consuming hops a probe needs to
// reach the destination endpoint: one per visible router, plus one when
// the destination is a host behind the final router. It returns 0 when
// the destination is unresolvable or unreachable — callers sizing hop
// buffers should treat that as "unknown".
func (f *Flow) HopsToDst() int {
	if !f.reachable {
		return 0
	}
	h := len(f.vis)
	if f.kind == dstHost {
		h++
	}
	return h
}

// probe is one probe's own fields; the flow supplies the rest.
type probe struct {
	ttl   uint8
	proto Proto
	seq   uint32
}

// Probe answers one probe of the compiled flow for the given TTL. It
// allocates nothing: every hop decision indexes into the compiled hop
// sequence, and every draw finishes one of the flow's hash prefixes.
// Network.Probe is this method on a one-shot flow, so the two are
// bit-identical. A probe from an unregistered source times out with no
// drop cause; a probe from an offline vantage point reports DropVPDown
// whatever its destination, since an offline VP sends nothing.
func (f *Flow) Probe(at time.Time, ttl uint8, proto Proto, seq uint32) Reply {
	if f.srcHost == nil {
		return Reply{Type: Timeout}
	}
	n := f.net
	plan := n.faults.Load()
	if !plan.active() {
		plan = nil
	}
	if plan != nil && plan.vpOffline(n.seed, f.src, f.hash.src, at) {
		return Reply{Type: Timeout, Drop: DropVPDown}
	}
	if ttl == 0 || !f.reachable {
		return Reply{Type: Timeout}
	}
	vis := f.vis
	p := probe{ttl: ttl, proto: proto, seq: seq}

	// Number of TTL-consuming hops to reach the destination endpoint:
	// each visible router is one, plus one more when the destination is
	// a host behind the final router.
	hopsToDst := len(vis)
	if f.kind == dstHost {
		hopsToDst++
	}

	if int(ttl) <= len(vis) && int(ttl) < hopsToDst {
		// Expires at an intermediate router.
		return f.routerReply(at, p, vis[ttl-1], TTLExceeded, plan)
	}
	if int(ttl) < hopsToDst {
		return Reply{Type: Timeout}
	}

	// Probe reaches the destination.
	switch f.kind {
	case dstHost:
		return f.hostReply(p, vis, plan)
	case dstIface:
		var h visibleHop
		if len(vis) == 0 {
			// Destination router is the VP's own gateway.
			h = visibleHop{router: f.dstRouter, in: f.dstIface, delay: 0, hops: 0}
		} else {
			h = vis[len(vis)-1]
			h.in = f.dstIface // echo/udp responses come from the probed address
		}
		kindReply := EchoReply
		if proto == UDP {
			kindReply = PortUnreachable
		}
		return f.routerReply(at, p, h, kindReply, plan)
	default: // dstPrefixOnly: address not live; the packet dies silently.
		return Reply{Type: Timeout}
	}
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
func (f *Flow) routerReply(at time.Time, p probe, h visibleHop, typ ReplyType, plan *FaultPlan) Reply {
	n := f.net
	r := h.router
	if typ != TTLExceeded {
		switch r.DstPolicy {
		case DstClosed:
			return Reply{Type: Timeout}
		case DstInternalOnly:
			if f.srcHost.ISP != r.ISP {
				return Reply{Type: Timeout}
			}
		}
	}
	if plan != nil {
		// Round trip traverses each of the h.hops+1 links (access link
		// included) in both directions.
		if plan.lossDrop(n.seed, f.hash.probeKey(p.ttl, p.proto, p.seq, f.flowID), 2*(h.hops+1)) {
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
		draw := float64(f.hash.responseDraw(p.ttl, p.seq)%1_000_000) / 1_000_000
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
	return Reply{
		Type:     typ,
		From:     from,
		RTT:      f.rtt(p, h.delay, h.hops, 0),
		ReplyTTL: replyTTL(255, h.hops),
		IPID:     r.nextIPID(at, replyIface),
	}
}

func (f *Flow) hostReply(p probe, vis []visibleHop, plan *FaultPlan) Reply {
	dst := f.dstHost
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
	if plan != nil && plan.lossDrop(f.net.seed, f.hash.probeKey(p.ttl, p.proto, p.seq, f.flowID), 2*(hops+2)) {
		return Reply{Type: Timeout, Drop: DropLoss}
	}
	typ := EchoReply
	if p.proto == UDP {
		typ = PortUnreachable
	}
	return Reply{
		Type:     typ,
		From:     dst.Addr,
		RTT:      f.rtt(p, pathDelay, hops, dst.AccessDelay),
		ReplyTTL: replyTTL(64, hops+1),
		IPID:     f.hash.hostIPID(p.seq),
	}
}

// rtt assembles a round-trip time: symmetric propagation, per-router
// processing both ways, both access links, and bounded per-probe jitter.
func (f *Flow) rtt(p probe, oneWay time.Duration, hops int, dstAccess time.Duration) time.Duration {
	n := f.net
	rtt := 2*oneWay + 2*f.srcHost.AccessDelay + 2*dstAccess
	rtt += time.Duration(2*hops) * n.ProcessingDelay
	if n.JitterMax > 0 {
		rtt += time.Duration(f.hash.jitterDraw(p.ttl, p.seq) % uint64(n.JitterMax))
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

// u64 folds an address into a hash input: the fold of its two
// big-endian 64-bit halves.
func u64(a netip.Addr) uint64 {
	b := a.As16()
	h := mix(0, binary.BigEndian.Uint64(b[:8]))
	return mix(h, binary.BigEndian.Uint64(b[8:]))
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
