package netsim

// Reference routing: the incremental Dijkstra, the predecessor walk and
// the per-tunnel MPLS visibility scan the flat route tables replaced,
// kept verbatim (modulo names and the caching they no longer do) so the
// tests in routing_equiv_test.go can hold the flat tables to them. The
// exported helpers below are the hooks those external tests call; they
// live here because an external test package may import topogen, which
// imports netsim, while this file may read netsim's internals.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"
)

// refSPT is the reference tree: one predecessor slice per router.
type refSPT struct {
	dist  []time.Duration
	preds [][]refPredEdge
}

type refPredEdge struct {
	from  int32
	iface *Iface // interface on the successor (current) router
	link  *Link
}

// refShortestPaths is the retired incremental build: each equal-cost
// relaxation appends a predecessor as it happens, and a shorter one
// restarts the list.
func (n *Network) refShortestPaths(src RouterID) *refSPT {
	nr := len(n.routers)
	res := &refSPT{
		dist:  make([]time.Duration, nr),
		preds: make([][]refPredEdge, nr),
	}
	for i := range res.dist {
		res.dist[i] = unreachable
	}
	res.dist[src] = 0
	q := make(pq, 0, nr)
	q.push(pqItem{router: int32(src), dist: 0})
	done := make([]bool, nr)
	arena := make([]refPredEdge, 0, nr)
	carve := func(pe refPredEdge) []refPredEdge {
		if cap(arena)-len(arena) >= 1 {
			s := arena[len(arena) : len(arena)+1 : len(arena)+1]
			arena = arena[:len(arena)+1]
			s[0] = pe
			return s
		}
		return []refPredEdge{pe}
	}
	for len(q) > 0 {
		it := q.pop()
		u := it.router
		if done[u] {
			continue
		}
		done[u] = true
		for _, ifc := range n.routers[u].ifaces {
			if ifc.Link == nil {
				continue
			}
			peer := ifc.Link.Other(ifc)
			v := peer.Router.idx
			metric := ifc.Link.Delay
			if ifc.Link.Metric != 0 {
				metric = ifc.Link.Metric
			}
			w := it.dist + quantizeDelay(metric) + hopCost
			switch {
			case w < res.dist[v]:
				res.dist[v] = w
				if res.preds[v] == nil {
					res.preds[v] = carve(refPredEdge{from: u, iface: peer, link: ifc.Link})
				} else {
					res.preds[v] = append(res.preds[v][:0], refPredEdge{from: u, iface: peer, link: ifc.Link})
				}
				q.push(pqItem{router: v, dist: w})
			case w == res.dist[v]:
				res.preds[v] = append(res.preds[v], refPredEdge{from: u, iface: peer, link: ifc.Link})
			}
		}
	}
	return res
}

// refRouterPath is the retired walk: it hashes at every router, single
// predecessor or not, and reads each link's delay off the Link.
func (n *Network) refRouterPath(spt *refSPT, src, dst RouterID, flowID uint16) []pathHop {
	if spt.dist[dst] == unreachable {
		return nil
	}
	fh := mix(n.seed, uint64(flowID))
	var rev []pathHop
	cur := int32(dst)
	for cur != int32(src) {
		preds := spt.preds[cur]
		pick := preds[int(mixStep(fh, uint64(cur))%uint64(len(preds)))]
		rev = append(rev, pathHop{router: n.routers[cur], in: pick.iface})
		cur = pick.from
	}
	rev = append(rev, pathHop{router: n.routers[src], in: nil, delay: 0})
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for i := 1; i < len(rev); i++ {
		rev[i].delay = rev[i-1].delay + rev[i].in.Link.Delay
	}
	return rev
}

// refTunnel is one LSP of the retired per-ingress tunnel map.
type refTunnel struct {
	Ingress *Router
	Egress  *Router
}

// refTunnels rebuilds the retired ingress-to-LSPs map from the egress
// sets.
func (n *Network) refTunnels() map[RouterID][]*refTunnel {
	m := map[RouterID][]*refTunnel{}
	for _, r := range n.routers {
		for _, e := range r.lspEgress {
			m[r.ID] = append(m[r.ID], &refTunnel{Ingress: r, Egress: n.routers[e]})
		}
	}
	return m
}

// refVisiblePath is the retired scan: for every hop, every LSP it
// originates looks its egress up by scanning the whole path.
func refVisiblePath(tunnels map[RouterID][]*refTunnel, path []pathHop, dstRouter *Router, dstIsRouterAddr bool) []visibleHop {
	pos := func(id RouterID) (int, bool) {
		for i, h := range path {
			if h.router.ID == id {
				return i, true
			}
		}
		return 0, false
	}
	hidden := make([]bool, len(path))
	dstPos := len(path)
	if dstIsRouterAddr {
		if p, ok := pos(dstRouter.ID); ok {
			dstPos = p
		}
	}
	for i, h := range path {
		for _, t := range tunnels[h.router.ID] {
			e, ok := pos(t.Egress.ID)
			if !ok || e <= i {
				continue
			}
			if dstPos <= e {
				continue
			}
			for j := i + 1; j < e; j++ {
				hidden[j] = true
			}
		}
	}
	out := make([]visibleHop, 0, len(path))
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

// ShortestPathsMatchReference builds the tree rooted at src both ways
// and reports the first difference in dist or in any router's
// predecessor list (from, inbound interface, link delay, in order).
func ShortestPathsMatchReference(n *Network, src RouterID) error {
	got, want := n.shortestPaths(src), n.refShortestPaths(src)
	if len(got.dist) != len(want.dist) || len(got.predOff) != len(want.dist)+1 {
		return fmt.Errorf("root %d: %d dists, %d list starts; reference has %d routers", src, len(got.dist), len(got.predOff), len(want.dist))
	}
	for v := range want.dist {
		if got.dist[v] != want.dist[v] {
			return fmt.Errorf("root %d: dist[%d] = %v, reference %v", src, v, got.dist[v], want.dist[v])
		}
		lo, hi := got.predOff[v], got.predOff[v+1]
		ref := want.preds[v]
		if int(hi-lo) != len(ref) {
			return fmt.Errorf("root %d: router %d has %d predecessors, reference %d", src, v, hi-lo, len(ref))
		}
		for k, pe := range ref {
			i := lo + int32(k)
			if got.predFrom[i] != pe.from || got.predIn[i] != pe.iface || got.predDelay[i] != pe.link.Delay {
				return fmt.Errorf("root %d: router %d predecessor %d = (%d, %s, %v), reference (%d, %s, %v)",
					src, v, k, got.predFrom[i], got.predIn[i].Addr, got.predDelay[i], pe.from, pe.iface.Addr, pe.link.Delay)
			}
		}
	}
	return nil
}

// RouterPathsMatchReference walks the router path from src to each of
// dsts for each of flowIDs both ways and reports the first differing
// hop.
func RouterPathsMatchReference(n *Network, src RouterID, dsts []RouterID, flowIDs []uint16) error {
	ref := n.refShortestPaths(src)
	for _, dst := range dsts {
		for _, fid := range flowIDs {
			got, _ := n.routerPath(nil, src, dst, fid)
			want := n.refRouterPath(ref, src, dst, fid)
			if err := samePathHops(got, want, fmt.Sprintf("%d->%d flow %d", src, dst, fid)); err != nil {
				return err
			}
		}
	}
	return nil
}

func samePathHops(got, want []pathHop, what string) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%s: %d hops (nil %v), reference %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: hop %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

// VisibleCase tallies what visible-path checks exercised.
type VisibleCase struct {
	// Hidden counts host-addressed checks whose path had an MPLS-hidden
	// hop.
	Hidden int
	// DPROn and DPRPast count router-addressed checks along an LSP the
	// path rides far enough to hide a hop, whose destination router is
	// that LSP's egress (DPR keeps the interior) or lies past it (the
	// interior stays hidden). A destination before the egress ends the
	// path inside the LSP, so the egress is not on the path at all.
	DPROn, DPRPast int
}

// VisiblePathsMatchReference applies MPLS visibility to the router
// path from src to each of dsts for each of flowIDs both ways, once for
// a host-like destination and once for a router-addressed one, reports
// the first difference, and tallies the cases it covered into vc.
func VisiblePathsMatchReference(n *Network, src RouterID, dsts []RouterID, flowIDs []uint16, vc *VisibleCase) error {
	tunnels := n.refTunnels()
	for _, dst := range dsts {
		for _, fid := range flowIDs {
			if err := visiblePathMatchesReference(n, tunnels, src, dst, fid, vc); err != nil {
				return err
			}
		}
	}
	return nil
}

func visiblePathMatchesReference(n *Network, tunnels map[RouterID][]*refTunnel, src, dst RouterID, flowID uint16, vc *VisibleCase) error {
	path, _ := n.routerPath(nil, src, dst, flowID)
	if path == nil {
		return nil
	}
	dstRouter := n.routers[dst]
	for _, toRouter := range []bool{false, true} {
		got := visiblePath(nil, path, toRouter)
		want := refVisiblePath(tunnels, path, dstRouter, toRouter)
		if len(got) != len(want) {
			return fmt.Errorf("%d->%d flow %d router-addressed %v: %d visible hops, reference %d", src, dst, flowID, toRouter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%d->%d flow %d router-addressed %v: hop %d = %+v, reference %+v", src, dst, flowID, toRouter, i, got[i], want[i])
			}
		}
		if !toRouter {
			if len(want) < len(path)-1 {
				vc.Hidden++
			}
			continue
		}
		// Classify the destination (the path's last router) against
		// every LSP the path rides far enough to hide a hop.
		last := len(path) - 1
		for i, h := range path {
			for _, t := range tunnels[h.router.ID] {
				for e := i + 2; e < len(path); e++ {
					if path[e].router != t.Egress {
						continue
					}
					if e == last {
						vc.DPROn++
					} else {
						vc.DPRPast++
					}
				}
			}
		}
	}
	return nil
}

// RandomRoutingNet builds a random topology that stresses route
// construction: delays drawn from a few whole milliseconds (so
// quantized costs tie often), parallel links, Link.Metric overrides,
// routers with unlinked interfaces, and islands unreachable from the
// rest.
func RandomRoutingNet(seed int64, routers int) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := New(uint64(seed))
	rs := make([]*Router, routers)
	for i := range rs {
		rs[i] = n.AddRouter(&Router{Name: fmt.Sprintf("r%d", i)})
	}
	seq := 0
	next := func() netip.Addr {
		seq++
		return netip.AddrFrom4([4]byte{10, byte(seq >> 16), byte(seq >> 8), byte(seq)})
	}
	// The last quarter of the routers forms a separate island.
	island := routers * 3 / 4
	link := func(i, j int) {
		l, err := n.ConnectRouters(rs[i], rs[j], next(), next(), time.Duration(1+rng.Intn(3))*time.Millisecond)
		if err != nil {
			panic(err)
		}
		switch rng.Intn(8) {
		case 0:
			l.Metric = time.Duration(rng.Intn(3000)) * time.Microsecond
		case 1:
			l.Delay += time.Duration(rng.Intn(400)) * time.Microsecond // ties after quantizing
		}
	}
	for i := 1; i < routers; i++ {
		lo := 0
		if i >= island {
			lo = island
		}
		if i == lo {
			continue
		}
		link(i, lo+rng.Intn(i-lo))
	}
	for k := 0; k < routers; k++ {
		i, j := rng.Intn(island), rng.Intn(island)
		if i == j {
			continue
		}
		link(i, j)
		if rng.Intn(4) == 0 {
			link(i, j) // a parallel link
		}
	}
	for i := 0; i < routers; i += 5 {
		if _, err := n.AddIface(rs[i], next()); err != nil { // a loopback
			panic(err)
		}
	}
	n.InvalidateRoutes()
	return n
}

// PathRouters returns the routers of the src-to-dst router path for
// flowID, nil when dst is unreachable.
func PathRouters(n *Network, src, dst RouterID, flowID uint16) []RouterID {
	var out []RouterID
	path, _ := n.routerPath(nil, src, dst, flowID)
	for _, h := range path {
		out = append(out, h.router.ID)
	}
	return out
}

// LSPEgress returns the egress set of the LSPs r originates.
func LSPEgress(r *Router) []RouterID { return r.lspEgress }
