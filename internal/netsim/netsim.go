// Package netsim simulates an internetwork of routers at the fidelity the
// paper's measurement toolchain needs: IP forwarding with TTL expiry,
// ICMP generation (time-exceeded, echo-reply, port-unreachable), MPLS
// tunnels with no-ttl-propagate opacity and DPR revelation, per-router
// ICMP policies (rate limiting, external-probe blocking), shared IP-ID
// counters for alias resolution, and a latency model driven by fiber
// propagation physics.
//
// Measurement code must treat a Network as a black box reachable only
// through Probe; the struct fields consumed by generators and scoring
// (router CO assignments and the like) are ground truth and must never
// leak into inference.
//
// # Concurrency
//
// Topology construction (AddRouter, AddIface, Connect, AddHost,
// AddPrefix, AddTunnel) is single-threaded: wire the network before the
// first probe. Once built, Probe is safe to call from any number of
// goroutines: the route table, the only routing state shared between
// probes, publishes each shortest-path tree whole through an atomic
// pointer (a compiled path belongs to the one Flow or Probe call that
// built it), the per-router
// and per-interface IP-ID counters are atomics, and every other
// per-probe "random" draw (jitter, rate-limit, ECMP tie breaks) is a
// pure splitmix-style hash of (seed, probe parameters), so no probe can
// perturb another's outcome regardless of interleaving.
// The only order-sensitive state is the IP-ID counters, and their
// post-batch values depend only on the multiset of replies generated —
// which is itself deterministic — so any schedule of the same probe set
// leaves the network in an identical state.
//
// Injected measurement faults (SetFaultPlan) keep this property: every
// fault decision — link loss, rate-limit windows, blackouts, silent
// hops, vantage-point churn — is likewise a pure hash of (seeds, probe
// parameters, virtual-time window), never a counter or shared RNG, so
// a faulted probe set is exactly as schedule-independent as a
// fault-free one.
package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geo"
)

// RouterID identifies a router within one Network.
type RouterID int32

// IPIDMode describes how a router generates IP-ID values, which controls
// whether MIDAR-style alias resolution can group its interfaces.
type IPIDMode uint8

const (
	// IPIDShared is a single counter shared by all interfaces, the
	// common case MIDAR exploits.
	IPIDShared IPIDMode = iota
	// IPIDRandom draws random IP-IDs; such routers defeat counter-based
	// alias resolution.
	IPIDRandom
	// IPIDPerInterface keeps an independent counter per interface,
	// which also defeats cross-interface grouping.
	IPIDPerInterface
)

// DstPolicy describes who may probe a router's own addresses.
type DstPolicy uint8

const (
	// DstOpen answers dst-addressed probes from anywhere (typical cable
	// operators).
	DstOpen DstPolicy = iota
	// DstInternalOnly answers only sources inside the router's ISP
	// (AT&T regional routers and lightspeed gateways).
	DstInternalOnly
	// DstClosed never answers dst-addressed probes (mobile carrier
	// packet-core infrastructure).
	DstClosed
)

// ReplyAddrMode describes which source address a router uses in ICMP
// responses it originates.
type ReplyAddrMode uint8

const (
	// ReplyInbound answers from the interface the probe arrived on;
	// the standard behaviour traceroute interprets.
	ReplyInbound ReplyAddrMode = iota
	// ReplyCanonical answers from a fixed (loopback-like) address, the
	// behaviour Mercator exploits for alias resolution.
	ReplyCanonical
)

// Router is one L3 device. Fields other than ID are ground truth owned by
// the generator; measurement code never reads them.
type Router struct {
	ID   RouterID
	Name string // generator-internal label, e.g. "comcast/boston/agg1"
	ISP  string // operator tag, e.g. "comcast"
	// CO is the central office identifier this router lives in (ground
	// truth for scoring). Empty for hosts' gateways outside the study.
	CO string
	// Loc is the router's physical location.
	Loc geo.Point

	// Canonical is the fixed source address used when ReplyAddr is
	// ReplyCanonical, and the address Mercator discovers.
	Canonical netip.Addr
	ReplyAddr ReplyAddrMode

	// ResponseProb is the probability the router answers any given
	// probe (models ICMP rate limiting); 0 means fully silent.
	ResponseProb float64
	// DstPolicy governs probes addressed to the router's own interfaces
	// (echo and UDP alias probes). TTL-exceeded generation for transit
	// packets is unaffected: blocking networks still reveal hops on
	// paths to customer destinations, which is what the paper's
	// TTL-limited echo trick (§6.3) exploits.
	DstPolicy DstPolicy

	IPID     IPIDMode
	ipidBase atomic.Uint64
	// IPIDVelocity is counter increments per second from background
	// traffic; MIDAR's monotonic bound test needs it to be modest.
	IPIDVelocity float64

	ifaces []*Iface
	net    *Network
	idx    int32 // index into Network.routers
	// lspEgress is the sorted, duplicate-free set of egress routers of
	// the MPLS LSPs this router originates (see AddTunnel).
	lspEgress []RouterID
}

// Iface is a router interface with one address.
type Iface struct {
	Addr   netip.Addr
	Router *Router
	// Link is the attached point-to-point link, nil for loopbacks and
	// host-facing aggregation interfaces.
	Link *Link

	// perIfIPID supports IPIDPerInterface mode.
	perIfIPID atomic.Uint64
}

// Link is an undirected point-to-point connection between two interfaces.
type Link struct {
	A, B *Iface
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Metric optionally overrides the routing weight (before
	// quantization). Operators set IGP metrics below the delay-derived
	// default to pull traffic onto preferred links (e.g. regional
	// interconnects instead of long-haul transit); RTTs always use
	// Delay.
	Metric time.Duration
}

// Other returns the interface on the far side of the link from i.
func (l *Link) Other(i *Iface) *Iface {
	if l.A == i {
		return l.B
	}
	return l.A
}

// Host is a last-mile endpoint: a subscriber CPE, an IP-DSLAM/ONT, a WiFi
// gateway, or a phone. Hosts attach to a router (their EdgeCO router)
// through an access link with its own delay.
type Host struct {
	Addr   netip.Addr
	Router *Router
	// AccessDelay is the one-way last-mile delay (DOCSIS/DSL/air).
	AccessDelay time.Duration
	// RespondsToPing controls whether the host answers echo requests.
	RespondsToPing bool
	// ISP tags which operator's address space the host lives in; used
	// for the internal/external probing policy.
	ISP string
	// Loc is the host's physical location.
	Loc geo.Point
}

// Network is the simulated internetwork: every ISP under study, the
// shared long-haul backbone, cloud providers, and last-mile hosts live in
// one Network so probes can cross operator boundaries like real packets.
type Network struct {
	routers []*Router
	ifaces  map[netip.Addr]*Iface
	hosts   map[netip.Addr]*Host

	// prefixOwner routes destination prefixes that are not interface or
	// host addresses (e.g. a /24 swept by a campaign where only some
	// addresses exist) to the router that would have served them.
	prefixOwners []prefixOwner
	// prefix24 indexes the common case of /24 owners for O(1) lookup.
	prefix24 map[netip.Addr]*prefixOwner
	// fib is the compiled longest-prefix-match trie over prefixOwners
	// (see lpm.go); nil means "rebuild on next lookup". AddPrefix
	// invalidates it.
	fib atomic.Pointer[trieFIB]

	// routeTab is the lazily built routing state (see routing.go); nil
	// means "rebuild on next lookup".
	routeTab atomic.Pointer[routeTable]
	seed     uint64

	// faults is the installed measurement-fault plan (see fault.go);
	// nil or the zero plan means every probe behaves as if the
	// measurement plane were perfect.
	faults atomic.Pointer[FaultPlan]

	// ProcessingDelay is the per-hop forwarding cost added to RTTs.
	ProcessingDelay time.Duration
	// JitterMax bounds the per-probe queueing jitter added to RTTs.
	JitterMax time.Duration
}

type prefixOwner struct {
	prefix netip.Prefix
	router *Router
	isp    string
}

// New returns an empty network with the given jitter seed.
func New(seed uint64) *Network {
	return &Network{
		ifaces:          map[netip.Addr]*Iface{},
		hosts:           map[netip.Addr]*Host{},
		seed:            seed,
		ProcessingDelay: 60 * time.Microsecond,
		JitterMax:       400 * time.Microsecond,
	}
}

// AddRouter registers a router and returns it. The caller fills policy
// fields before the first probe.
func (n *Network) AddRouter(r *Router) *Router {
	r.ID = RouterID(len(n.routers))
	r.idx = int32(len(n.routers))
	r.net = n
	if r.ResponseProb == 0 {
		r.ResponseProb = 1
	}
	n.routers = append(n.routers, r)
	n.InvalidateRoutes()
	return r
}

// AddIface attaches a new addressed interface to r.
func (n *Network) AddIface(r *Router, addr netip.Addr) (*Iface, error) {
	if !addr.IsValid() {
		return nil, fmt.Errorf("netsim: invalid interface address for %s", r.Name)
	}
	if _, dup := n.ifaces[addr]; dup {
		return nil, fmt.Errorf("netsim: duplicate interface address %s", addr)
	}
	ifc := &Iface{Addr: addr, Router: r}
	r.ifaces = append(r.ifaces, ifc)
	n.ifaces[addr] = ifc
	if !r.Canonical.IsValid() {
		r.Canonical = addr
	}
	return ifc, nil
}

// Connect creates a point-to-point link between two interfaces with the
// given one-way delay. Both interfaces must be link-free.
func (n *Network) Connect(a, b *Iface, delay time.Duration) (*Link, error) {
	if a.Link != nil || b.Link != nil {
		return nil, fmt.Errorf("netsim: interface already linked (%s - %s)", a.Addr, b.Addr)
	}
	if a.Router == b.Router {
		return nil, fmt.Errorf("netsim: self-link on router %s", a.Router.Name)
	}
	l := &Link{A: a, B: b, Delay: delay}
	a.Link = l
	b.Link = l
	n.InvalidateRoutes()
	return l, nil
}

// ConnectRouters is a convenience that allocates one interface on each
// router from the two usable addresses of a point-to-point subnet and
// links them. addrA and addrB are the two subnet addresses.
func (n *Network) ConnectRouters(a, b *Router, addrA, addrB netip.Addr, delay time.Duration) (*Link, error) {
	ia, err := n.AddIface(a, addrA)
	if err != nil {
		return nil, err
	}
	ib, err := n.AddIface(b, addrB)
	if err != nil {
		return nil, err
	}
	return n.Connect(ia, ib, delay)
}

// AddHost registers a last-mile endpoint.
func (n *Network) AddHost(h *Host) error {
	if _, dup := n.hosts[h.Addr]; dup {
		return fmt.Errorf("netsim: duplicate host address %s", h.Addr)
	}
	if h.Router == nil {
		return fmt.Errorf("netsim: host %s has no gateway router", h.Addr)
	}
	n.hosts[h.Addr] = h
	return nil
}

// InvalidateRoutes drops the routing adjacency and the cached
// shortest-path trees. AddRouter and Connect call it automatically;
// callers that tune Link.Metric or Link.Delay after wiring must call it
// themselves. Flows compiled before the call keep their old path;
// compile them again.
func (n *Network) InvalidateRoutes() {
	n.routeTab.Store(nil)
}

// AddPrefix declares that unassigned addresses within prefix are served
// by r (probes toward them route to r and then die unanswered, as when a
// campaign sweeps a /24 with few live addresses).
func (n *Network) AddPrefix(p netip.Prefix, r *Router, isp string) {
	po := prefixOwner{prefix: p, router: r, isp: isp}
	if p.Addr().Is4() && p.Bits() == 24 {
		if n.prefix24 == nil {
			n.prefix24 = map[netip.Addr]*prefixOwner{}
		}
		n.prefix24[p.Masked().Addr()] = &po
		return
	}
	n.prefixOwners = append(n.prefixOwners, po)
	n.invalidateFIB()
}

// AddTunnel installs an MPLS LSP from ingress to egress. With
// no-ttl-propagate semantics a traceroute through the tunnel shows the
// ingress and egress as adjacent hops; the interior only appears when
// the probe's destination is an address on the egress or an interior
// router (Direct Path Revelation). Installing the same LSP twice is
// the same as installing it once.
func (n *Network) AddTunnel(ingress, egress *Router) {
	i, found := slices.BinarySearch(ingress.lspEgress, egress.ID)
	if !found {
		ingress.lspEgress = slices.Insert(ingress.lspEgress, i, egress.ID)
	}
}

// Routers returns the ground-truth router list; for generators and
// scoring only.
func (n *Network) Routers() []*Router { return n.routers }

// IfaceByAddr returns the ground-truth interface for an address; for
// generators and scoring only.
func (n *Network) IfaceByAddr(a netip.Addr) (*Iface, bool) {
	ifc, ok := n.ifaces[a]
	return ifc, ok
}

// Interfaces returns ground-truth interfaces of a router.
func (r *Router) Interfaces() []*Iface { return r.ifaces }
