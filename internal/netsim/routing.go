package netsim

import (
	"sync/atomic"
	"time"
)

// adjacency is the routing graph in CSR form, built once per topology:
// router u's linked interfaces, in interface order, are the edges
// off[u] to off[u+1]. Each edge keeps what Dijkstra's relaxation reads,
// so that loop chases no Iface or Link pointers.
type adjacency struct {
	off []int32
	to  []int32         // the far-side router
	w   []time.Duration // routing weight: quantized metric plus hopCost
	far []*Iface        // the far-side interface: the next hop's inbound
}

func newAdjacency(routers []*Router) adjacency {
	a := adjacency{off: make([]int32, len(routers)+1)}
	for i, r := range routers {
		a.off[i+1] = a.off[i]
		for _, ifc := range r.ifaces {
			if ifc.Link != nil {
				a.off[i+1]++
			}
		}
	}
	m := a.off[len(routers)]
	a.to, a.w, a.far = make([]int32, 0, m), make([]time.Duration, 0, m), make([]*Iface, 0, m)
	for _, r := range routers {
		for _, ifc := range r.ifaces {
			l := ifc.Link
			if l == nil {
				continue
			}
			metric := l.Delay
			if l.Metric != 0 {
				metric = l.Metric
			}
			peer := l.Other(ifc)
			a.to = append(a.to, peer.Router.idx)
			a.w = append(a.w, quantizeDelay(metric)+hopCost)
			a.far = append(a.far, peer)
		}
	}
	return a
}

// routeTable is one topology's routing state: its adjacency and a slot
// per router for that router's shortest-path tree. A tree is built on
// its first lookup and published whole into its slot, so lookups take
// no lock; InvalidateRoutes drops the table.
type routeTable struct {
	adj   adjacency
	trees []atomic.Pointer[sptResult]
}

// sptResult is a shortest-path tree rooted at one router, retaining every
// equal-cost predecessor so ECMP path selection can hash on flow IDs the
// way Paris traceroute expects. Router v's predecessors are the entries
// predOff[v] to predOff[v+1] of the pred arrays: the predecessor router,
// the interface on v the packet arrives on, and that link's true delay.
type sptResult struct {
	dist      []time.Duration
	predOff   []int32
	predFrom  []int32
	predIn    []*Iface
	predDelay []time.Duration
}

type pqItem struct {
	router int32
	dist   time.Duration
}

// pq is a hand-rolled binary min-heap ordered by (dist, router).
// container/heap would box every pqItem through interface{} on Push and
// Pop — two heap allocations per queue operation, tens of thousands per
// campaign. Distinct items order strictly (equal dist ties break on
// router, and same-router-same-dist entries are identical values), so
// the pop sequence is the unique minimum each step regardless of heap
// internals — the Dijkstra result cannot depend on this representation.
type pq []pqItem

func (p pq) less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].router < p[j].router
}

func (p *pq) push(it pqItem) {
	q := append(*p, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*p = q
}

func (p *pq) pop() pqItem {
	q := *p
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q.less(l, small) {
			small = l
		}
		if r < len(q) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*p = q
	return top
}

const unreachable = time.Duration(1<<62 - 1)

// routes returns the current route table, building an empty one (with
// its adjacency) on the first lookup after InvalidateRoutes. Racing
// builders build identical tables; the first published one wins.
func (n *Network) routes() *routeTable {
	for {
		if t := n.routeTab.Load(); t != nil {
			return t
		}
		t := &routeTable{adj: newAdjacency(n.routers), trees: make([]atomic.Pointer[sptResult], len(n.routers))}
		n.routeTab.CompareAndSwap(nil, t)
	}
}

// shortestPaths returns the SPT rooted at src, building it on the first
// lookup. Link weight is propagation delay plus a constant hop cost, so
// the simulator prefers the same low-latency, few-hop paths an IGP with
// delay-derived metrics would pick. Safe for concurrent probing: Dijkstra
// is deterministic, so racing builders agree and the first published
// tree is shared thereafter.
func (n *Network) shortestPaths(src RouterID) *sptResult {
	t := n.routes()
	slot := &t.trees[src]
	if r := slot.Load(); r != nil {
		return r
	}
	slot.CompareAndSwap(nil, t.adj.shortestPaths(int32(src)))
	return slot.Load()
}

// shortestPaths runs Dijkstra from src, counting each router's
// equal-cost predecessors as it relaxes, then fills the lists: v's
// predecessors are every settled u with dist[u]+w == dist[v], in settle
// order and then interface order. That is the list, in that order, the
// incremental build kept in routing_ref_test.go appended: weights are
// positive, so every such u settles before v, and a relaxation can only
// tie v's final distance once the one that set it has run.
func (a *adjacency) shortestPaths(src int32) *sptResult {
	nr := len(a.off) - 1
	dist := make([]time.Duration, nr)
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	off := make([]int32, nr+1) // off[v+1] counts v's predecessors
	order := make([]int32, 0, nr)
	q := make(pq, 0, nr)
	q.push(pqItem{router: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		u := it.router
		if it.dist != dist[u] {
			continue // superseded by a shorter push, which settled u
		}
		order = append(order, u)
		for e := a.off[u]; e < a.off[u+1]; e++ {
			switch v, w := a.to[e], it.dist+a.w[e]; {
			case w < dist[v]:
				dist[v], off[v+1] = w, 1
				q.push(pqItem{router: v, dist: w})
			case w == dist[v]:
				off[v+1]++
			}
		}
	}
	// Prefix-sum the counts into list starts and fill each list with
	// off[v] as its cursor, which leaves off[v] at v's end; one shift
	// turns the ends back into starts.
	for v := 0; v < nr; v++ {
		off[v+1] += off[v]
	}
	res := &sptResult{
		dist:      dist,
		predOff:   off,
		predFrom:  make([]int32, off[nr]),
		predIn:    make([]*Iface, off[nr]),
		predDelay: make([]time.Duration, off[nr]),
	}
	for _, u := range order {
		for e := a.off[u]; e < a.off[u+1]; e++ {
			if v := a.to[e]; dist[u]+a.w[e] == dist[v] {
				k := off[v]
				off[v]++
				res.predFrom[k], res.predIn[k], res.predDelay[k] = u, a.far[e], a.far[e].Link.Delay
			}
		}
	}
	copy(off[1:], off[:nr])
	off[0] = 0
	return res
}

// hopCost biases routing toward fewer hops when propagation delays tie
// (parallel links inside a metro).
const hopCost = 10 * time.Microsecond

// quantizeDelay coarsens a link delay into IGP-metric buckets for
// routing decisions. Real IGP metrics are quantized (reference-bandwidth
// or rounded-delay derived), which is what makes equal-cost multipath
// common in practice; without it, microsecond-level geographic
// differences would make every routing decision unique and traceroute
// would never observe redundant paths. RTTs still use the exact delays.
func quantizeDelay(d time.Duration) time.Duration {
	const bucket = time.Millisecond
	return (d + bucket/2) / bucket * bucket
}

// pathHop is one router visited by a forwarded packet.
type pathHop struct {
	router *Router
	in     *Iface // interface the packet arrived on; nil at the source
	// delay is the cumulative one-way physical propagation delay from
	// the source router to this router along the chosen path. It is
	// rebuilt from the links' true delays, NOT from the routing metric:
	// IGP metrics are quantized (and sometimes operator-overridden), but
	// packets still experience the real fiber.
	delay time.Duration
}

// routerPath fills buf with the routers a packet traverses from src to
// dst, choosing among equal-cost alternatives with a hash of flowID so
// equal flow IDs always take identical paths (Paris traceroute
// invariant). Returns nil when dst is unreachable from src. branched
// reports whether the walk met a router with more than one equal-cost
// predecessor, the only place flowID is hashed: a walk that did not
// returns the same path for every flow ID.
func (n *Network) routerPath(buf []pathHop, src, dst RouterID, flowID uint16) (path []pathHop, branched bool) {
	spt := n.shortestPaths(src)
	if spt.dist[dst] == unreachable {
		return nil, false
	}
	// Walk predecessors from dst back to src; the picks are pure
	// functions of (seed, flowID, router), and the (seed, flowID)
	// prefix of that hash is folded once per walk. A router with one
	// predecessor takes it whatever the hash, so only ECMP branch
	// points hash at all.
	fh := mix(n.seed, uint64(flowID))
	rev := buf[:0]
	cur := int32(dst)
	for cur != int32(src) {
		k := spt.predOff[cur]
		if m := spt.predOff[cur+1] - k; m > 1 {
			k += int32(mixStep(fh, uint64(cur)) % uint64(m))
			branched = true
		}
		// delay holds the link's own delay until the forward pass
		// below accumulates it.
		rev = append(rev, pathHop{router: n.routers[cur], in: spt.predIn[k], delay: spt.predDelay[k]})
		cur = spt.predFrom[k]
	}
	rev = append(rev, pathHop{router: n.routers[src], in: nil, delay: 0})
	// Reverse into forward order and accumulate the physical delays of
	// the links actually traversed.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for i := 1; i < len(rev); i++ {
		rev[i].delay += rev[i-1].delay
	}
	return rev, branched
}

// Reachable reports whether dst's serving router can be reached from
// src's serving router.
func (n *Network) Reachable(src, dst *Router) bool {
	return n.shortestPaths(src.ID).dist[dst.idx] != unreachable
}

// mixSeed is the fold's initial state.
const mixSeed = 0x9e3779b97f4a7c15

// mixStep folds one value into a running hash state. The fold is
// sequential, so a caller whose leading inputs are fixed (a flow's
// seed and addresses) computes that prefix once and finishes it per
// probe: mix(a, b, c) == mixStep(mixStep(mixStep(mixSeed, a), b), c).
func mixStep(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// mix is a splitmix64-style hash combiner used everywhere the simulator
// needs deterministic pseudo-randomness keyed by probe parameters.
func mix(vs ...uint64) uint64 {
	h := uint64(mixSeed)
	for _, v := range vs {
		h = mixStep(h, v)
	}
	return h
}
