// Package alias implements the two alias-resolution techniques the
// paper combines (§5.1): Mercator-style common-source-address probing
// (UDP probes to high ports; a router that answers from a different
// address than probed reveals an alias pair) and MIDAR-style IP-ID
// analysis (routers with a shared IP-ID counter produce interleavable
// monotonic sequences across their interfaces; the Monotonic Bound Test
// verifies candidate groups).
//
// The resolver sees only probe responses; it never touches the
// simulator's ground truth.
package alias

import (
	"math"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/vclock"
)

// Resolver runs alias resolution from one vantage point.
type Resolver struct {
	Net   *netsim.Network
	Clock *vclock.Clock
	// VP is the probing source (must be a registered host; pick one
	// inside the target ISP when its routers block external probes).
	VP netip.Addr
	// Parallelism is the worker count for the Mercator stage and for
	// MIDAR's velocity-fit computation (0 selects GOMAXPROCS). Mercator
	// probes are independent, so results are identical at any value.
	// MIDAR's probing always runs sequentially: its signal is the
	// time-interleaving of IP-ID samples across targets, which is
	// inherently order-dependent (replies draw on shared per-router
	// counters); only the pure-compute fit over the collected samples
	// shards across workers.
	Parallelism int

	// VelocityTolerance bounds the relative velocity mismatch for MIDAR
	// candidate pairs (default 0.25).
	VelocityTolerance float64
	// EstimationSamples and EstimationSpacing configure the velocity
	// estimation stage (defaults 4 samples, 10s apart).
	EstimationSamples int
	EstimationSpacing time.Duration
	// MBTSamples is the per-address sample count in the interleaved
	// Monotonic Bound Test (default 4).
	MBTSamples int
	// Passes re-runs the IP-ID stage so targets that lost estimation
	// samples to rate limiting get another chance (default 2, like
	// MIDAR's repeated elimination rounds).
	Passes int

	// Stats, when non-nil, accumulates the resolver's probe-outcome
	// ledger; campaigns point it at their collection-wide tally so
	// coverage reports account for alias probes too. Outcomes are filed
	// from the resolver's own (sequential) fold paths, never from
	// worker goroutines, so no synchronization is needed.
	Stats *probesched.ProbeStats

	// scratch reuses the MIDAR sampling grid and fit buffers across
	// passes and partitions (see midarScratch). Only the resolver's own
	// sequential probing path touches it.
	scratch midarScratch
}

// observe files one probe outcome into Stats, when attached.
func (r *Resolver) observe(reply netsim.Reply, retry bool) {
	if r.Stats == nil {
		return
	}
	r.Stats.Observe(reply.Type != netsim.Timeout,
		reply.Outcome() == netsim.OutcomeRateLimited, retry)
}

// Result holds resolved alias groups as a dense union-find: every
// address filed as evidence gets an int32 index (first-seen order), and
// parent/rank are slices over those indexes. The resolver's own
// evidence filing interns addresses and compresses paths; every
// exported lookup (SameRouter, Groups) is read-only, so a
// finished Result is safe for concurrent readers and a lookup of an
// address the resolver never saw leaves the Result unchanged.
type Result struct {
	index  map[netip.Addr]int32
	addrs  []netip.Addr
	parent []int32
	rank   []uint8
	// MercatorPairs and MIDARPairs count evidence by technique, for
	// reporting.
	MercatorPairs int
	MIDARPairs    int
}

func newResult() *Result {
	return &Result{index: map[netip.Addr]int32{}}
}

// intern returns a's index, seeding a singleton on first sight.
// Evidence filing only.
func (r *Result) intern(a netip.Addr) int32 {
	if i, ok := r.index[a]; ok {
		return i
	}
	i := int32(len(r.addrs))
	r.index[a] = i
	r.addrs = append(r.addrs, a)
	r.parent = append(r.parent, i)
	r.rank = append(r.rank, 0)
	return i
}

// find returns i's root, compressing the path. Evidence filing only.
func (r *Result) find(i int32) int32 {
	root := i
	for r.parent[root] != root {
		root = r.parent[root]
	}
	for r.parent[i] != root {
		i, r.parent[i] = r.parent[i], root
	}
	return root
}

// rootOf is the read-only find behind every exported lookup: it walks
// to the root without writing.
func (r *Result) rootOf(i int32) int32 {
	for r.parent[i] != i {
		i = r.parent[i]
	}
	return i
}

// union merges the sets of indexes i and j (union by rank).
func (r *Result) union(i, j int32) {
	ri, rj := r.find(i), r.find(j)
	if ri == rj {
		return
	}
	if r.rank[ri] < r.rank[rj] {
		ri, rj = rj, ri
	}
	r.parent[rj] = ri
	if r.rank[ri] == r.rank[rj] {
		r.rank[ri]++
	}
}

// SameRouter reports whether the resolver concluded a and b are
// interfaces of one router.
func (r *Result) SameRouter(a, b netip.Addr) bool {
	if a == b {
		return true
	}
	i, ok := r.index[a]
	if !ok {
		return false
	}
	j, ok := r.index[b]
	if !ok {
		return false
	}
	return r.rootOf(i) == r.rootOf(j)
}

// Groups returns every alias set with two or more members, each sorted,
// and the list sorted by first member, so output is deterministic.
func (r *Result) Groups() [][]netip.Addr {
	m := map[int32][]netip.Addr{}
	for i, a := range r.addrs {
		root := r.rootOf(int32(i))
		m[root] = append(m[root], a)
	}
	var out [][]netip.Addr
	for _, g := range m {
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i].Less(g[j]) })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Less(out[j][0]) })
	return out
}

// Compact freezes the result into its minimal read-only form: the
// multi-member groups are materialized and the entries for singleton
// targets — one per probed address, the overwhelming majority — are
// dropped, with every survivor pointing straight at its group's root.
// Groups and SameRouter answer identically afterwards
// (absent addresses are singletons, exactly what the dropped entries
// encoded); callers must not file further union evidence into a
// compacted result. Campaigns call this once resolution and mapping
// are done, so a retained Result costs O(aliased addresses), not
// O(probed targets).
func (r *Result) Compact() {
	groups := r.Groups()
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	r.index = make(map[netip.Addr]int32, n)
	r.addrs = make([]netip.Addr, 0, n)
	r.parent = make([]int32, 0, n)
	for _, g := range groups {
		root := int32(len(r.addrs))
		for _, a := range g {
			r.index[a] = int32(len(r.addrs))
			r.addrs = append(r.addrs, a)
			r.parent = append(r.parent, root)
		}
	}
	r.rank = nil
}

func (r *Resolver) defaults() {
	if r.VelocityTolerance == 0 {
		r.VelocityTolerance = 0.25
	}
	if r.EstimationSamples == 0 {
		r.EstimationSamples = 4
	}
	if r.EstimationSpacing == 0 {
		r.EstimationSpacing = 10 * time.Second
	}
	if r.MBTSamples == 0 {
		r.MBTSamples = 4
	}
	if r.Passes == 0 {
		r.Passes = 2
	}
}

// NewResult returns an empty Result for accumulating evidence across
// several partitioned resolution calls.
func NewResult() *Result { return newResult() }

// Resolve runs Mercator then MIDAR over the targets and merges the
// evidence into one Result.
func (r *Resolver) Resolve(targets []netip.Addr) *Result {
	res := newResult()
	r.ResolveInto(targets, res)
	return res
}

// ResolveInto runs both techniques over targets, accumulating evidence
// into res. Callers that partition their target space (e.g. per regional
// network, as the paper does) share one Result across partitions.
func (r *Resolver) ResolveInto(targets []netip.Addr, res *Result) {
	r.MercatorInto(targets, res)
	r.MIDARInto(targets, res)
}

// MercatorInto runs only the common-source-address technique.
func (r *Resolver) MercatorInto(targets []netip.Addr, res *Result) {
	r.defaults()
	idx := make([]int32, len(targets))
	for i, t := range targets {
		idx[i] = res.intern(t) // seed singletons so Groups sees every target
	}
	r.mercator(targets, idx, res)
}

// MIDARInto runs only the IP-ID technique. Keep partitions to a few
// thousand addresses: candidate pairing compares counter projections,
// and cramming the whole Internet into one projection space raises the
// collision rate, as it would for the real MIDAR.
func (r *Resolver) MIDARInto(targets []netip.Addr, res *Result) {
	r.defaults()
	idx := make([]int32, len(targets))
	for i, t := range targets {
		idx[i] = res.intern(t)
	}
	r.midar(targets, idx, res)
}

// mercator sends one UDP probe to a high port on each target; a
// port-unreachable from a different source address is an alias pair.
// The probes fan out over the scheduler, each worker chunk compiling
// its flows into one leased path buffer; evidence folds in target
// order. idx holds each target's index in res.
func (r *Resolver) mercator(targets []netip.Addr, idx []int32, res *Result) {
	pool := probesched.New(r.Parallelism, r.Clock)
	jobs := make([]int, len(targets))
	for i := range jobs {
		jobs[i] = i
	}
	var bufs sync.Pool
	probesched.MapFold(pool, jobs,
		func() *netsim.PathBuf {
			if b, ok := bufs.Get().(*netsim.PathBuf); ok {
				return b
			}
			return new(netsim.PathBuf)
		},
		func(b *netsim.PathBuf) { bufs.Put(b) },
		func(clk *vclock.Clock, path *netsim.PathBuf, i int) netsim.Reply {
			flow := r.Net.CompileFlowInto(path, r.VP, targets[i], 0)
			reply := flow.Probe(clk.Now(), 64, netsim.UDP, uint32(i))
			clk.Advance(20 * time.Millisecond)
			return reply
		},
		func(i int, reply netsim.Reply) {
			r.observe(reply, false)
			if reply.Type == netsim.PortUnreachable && reply.From.IsValid() && reply.From != targets[i] {
				res.union(idx[i], res.intern(reply.From))
				res.MercatorPairs++
			}
		})
}

// ipidSample is one (virtual time, IP-ID) observation.
type ipidSample struct {
	at   time.Time
	ipid uint16
}

// candidate is an address that passed velocity estimation.
type candidate struct {
	// idx is the address's index in the Result the evidence files into.
	idx int32
	// flow is the target's compiled forwarding path, shared with the
	// MBT stage so it probes without re-resolving.
	flow     *netsim.Flow
	velocity float64 // counts per second
	// projected is the counter value extrapolated to the estimation
	// epoch; aliases share both slope and intercept.
	projected float64
	last      ipidSample
}

// estimate fits a velocity to a sample series, rejecting series that are
// not monotonic modulo wraparound or that advance implausibly fast.
func estimate(samples []ipidSample, epoch time.Time) (candidate, bool) {
	const maxVelocity = 2000.0 // counts/s beyond which unwrap is ambiguous
	var total float64
	for i := 1; i < len(samples); i++ {
		d := int32(samples[i].ipid) - int32(samples[i-1].ipid)
		if d < 0 {
			d += 65536
		}
		dt := samples[i].at.Sub(samples[i-1].at).Seconds()
		if dt <= 0 {
			return candidate{}, false
		}
		v := float64(d) / dt
		if d == 0 || v > maxVelocity {
			return candidate{}, false
		}
		total += float64(d)
	}
	elapsed := samples[len(samples)-1].at.Sub(samples[0].at).Seconds()
	vel := total / elapsed
	// Check per-interval velocities are self-consistent (a random IP-ID
	// series occasionally unwraps to something monotonic but jittery).
	for i := 1; i < len(samples); i++ {
		d := int32(samples[i].ipid) - int32(samples[i-1].ipid)
		if d < 0 {
			d += 65536
		}
		dt := samples[i].at.Sub(samples[i-1].at).Seconds()
		v := float64(d) / dt
		if v > vel*3+30 || v < vel/3-30 {
			return candidate{}, false
		}
	}
	last := samples[len(samples)-1]
	proj := math.Mod(float64(last.ipid)-vel*last.at.Sub(epoch).Seconds(), 65536)
	if proj < 0 {
		proj += 65536
	}
	return candidate{velocity: vel, projected: proj, last: last}, true
}

func velocityCompatible(a, b, tol float64) bool {
	if a > b {
		a, b = b, a
	}
	return b <= a*(1+tol)+10
}
