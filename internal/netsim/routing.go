package netsim

import (
	"time"
)

// sptResult is a shortest-path tree rooted at one router, retaining every
// equal-cost predecessor so ECMP path selection can hash on flow IDs the
// way Paris traceroute expects.
type sptResult struct {
	dist  []time.Duration
	preds [][]predEdge
}

type predEdge struct {
	from  int32
	iface *Iface // interface on the successor (current) router
	link  *Link
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

// shortestPaths computes (and caches) the SPT rooted at src. Link weight
// is propagation delay plus a constant hop cost, so the simulator prefers
// the same low-latency, few-hop paths an IGP with delay-derived metrics
// would pick. Safe for concurrent probing: the tree is computed outside
// the write lock (it is deterministic, so concurrent builders agree) and
// the first stored copy is shared thereafter.
func (n *Network) shortestPaths(src RouterID) *sptResult {
	n.sptMu.RLock()
	r, ok := n.spt[src]
	n.sptMu.RUnlock()
	if ok {
		return r
	}
	nr := len(n.routers)
	res := &sptResult{
		dist:  make([]time.Duration, nr),
		preds: make([][]predEdge, nr),
	}
	for i := range res.dist {
		res.dist[i] = unreachable
	}
	res.dist[src] = 0
	q := make(pq, 0, nr)
	q.push(pqItem{router: int32(src), dist: 0})
	done := make([]bool, nr)
	// Single-predecessor nodes — the overwhelming majority — carve their
	// one-entry preds slice out of a shared arena instead of allocating
	// individually (one allocation per reachable node per SPT root adds
	// up to millions across a scaled campaign's vantage points). Carves
	// are capacity-clamped, so a node that later gains an equal-cost
	// predecessor appends out of the arena into its own slice without
	// touching its neighbor's entry.
	arena := make([]predEdge, 0, nr)
	carve := func(pe predEdge) []predEdge {
		if cap(arena)-len(arena) >= 1 {
			s := arena[len(arena) : len(arena)+1 : len(arena)+1]
			arena = arena[:len(arena)+1]
			s[0] = pe
			return s
		}
		return []predEdge{pe}
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
					res.preds[v] = carve(predEdge{from: u, iface: peer, link: ifc.Link})
				} else {
					res.preds[v] = append(res.preds[v][:0], predEdge{from: u, iface: peer, link: ifc.Link})
				}
				q.push(pqItem{router: v, dist: w})
			case w == res.dist[v]:
				res.preds[v] = append(res.preds[v], predEdge{from: u, iface: peer, link: ifc.Link})
			}
		}
	}
	n.sptMu.Lock()
	if prev, ok := n.spt[src]; ok {
		n.sptMu.Unlock()
		return prev
	}
	n.spt[src] = res
	n.sptMu.Unlock()
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
// invariant). Returns nil when dst is unreachable from src. The walk is
// scratch: visiblePath copies what it keeps, so compilePath passes a
// stack buffer and append only reaches the heap for paths longer than
// that buffer.
func (n *Network) routerPath(buf []pathHop, src, dst RouterID, flowID uint16) []pathHop {
	spt := n.shortestPaths(src)
	if spt.dist[dst] == unreachable {
		return nil
	}
	// Walk predecessors from dst back to src; the picks are pure
	// functions of (seed, flowID, router), and the (seed, flowID)
	// prefix of that hash is folded once per walk.
	fh := mix(n.seed, uint64(flowID))
	rev := buf[:0]
	cur := int32(dst)
	for cur != int32(src) {
		preds := spt.preds[cur]
		pick := preds[int(mixStep(fh, uint64(cur))%uint64(len(preds)))]
		rev = append(rev, pathHop{router: n.routers[cur], in: pick.iface})
		cur = pick.from
	}
	rev = append(rev, pathHop{router: n.routers[src], in: nil, delay: 0})
	// Reverse into forward order and accumulate the physical delays of
	// the links actually traversed.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for i := 1; i < len(rev); i++ {
		rev[i].delay = rev[i-1].delay + rev[i].in.Link.Delay
	}
	return rev
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
