package alias

import (
	"math"
	"net/netip"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/probesched"
)

// midar implements the IP-ID stage: velocity estimation over interleaved
// sampling rounds (so all targets share one time window and their
// counter projections are comparable), candidate pairing by (velocity,
// projected counter), and a two-epoch interleaved Monotonic Bound Test
// with a linear-fit residual criterion.
//
// Design notes mirroring MIDAR's engineering constraints:
//
//   - Sampling happens in rounds (every target probed once per round)
//     rather than target-by-target; otherwise the campaign clock drifts
//     far between targets and extrapolating counters back to a common
//     epoch amplifies velocity-estimate error beyond usefulness.
//   - Candidate pairs must project to nearby counter values at the
//     shared epoch; two routers only collide when both their velocities
//     and their counter phases align by chance.
//   - The MBT runs two bursts separated by a long gap. A true alias's
//     samples fall on one line (residuals are per-reply increments); two
//     distinct routers differ either in phase (alternating residual) or
//     in velocity (residual growing with the gap), so a small maximum
//     residual rejects them.
func (r *Resolver) midar(targets []netip.Addr, idx []int32, res *Result) {
	// Compile each target's forwarding path once up front; every
	// estimation-round and MBT probe across every pass replays the
	// compiled flow. Flow.Probe is bit-identical to Network.Probe (see
	// internal/netsim), so the reply stream — and hence the IP-ID
	// evidence — is unchanged; only the per-probe destination resolution
	// and path walks disappear. Compiling probes nothing, so the flows
	// compile across the pool. Flows and their path buffers live in
	// resolver-owned slices indexed like targets (candidates keep a
	// pointer into flows), reused by every partition.
	sc := &r.scratch
	if len(sc.paths) < len(targets) {
		sc.paths = append(sc.paths, make([]netsim.PathBuf, len(targets)-len(sc.paths))...)
	}
	if cap(sc.flows) < len(targets) {
		sc.flows = make([]netsim.Flow, len(targets))
	}
	flows, paths := sc.flows[:len(targets)], sc.paths
	probesched.Reduce(probesched.New(r.Parallelism, nil), len(targets),
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) struct{} {
			flows[i] = r.Net.CompileFlowInto(&paths[i], r.VP, targets[i], 0)
			return struct{}{}
		},
		func(struct{}, struct{}) struct{} { return struct{}{} })
	for pass := 0; pass < r.Passes; pass++ {
		r.midarPass(idx, flows, res, pass)
	}
}

// midarScratch holds the IP-ID stage's reusable buffers: the targets'
// compiled flows and their path storage, the flat estimation-sample
// grid (row i = target i's samples, EstimationSamples wide) with its
// per-row fill counts, plus the MBT's series and fit arrays. Reused
// across rounds, passes, and regional partitions, the whole IP-ID stage
// settles into zero steady-state allocation; a map of per-target
// append-grown slices was ~4.5k allocations per campaign.
type midarScratch struct {
	flows     []netsim.Flow
	paths     []netsim.PathBuf
	samples   []ipidSample
	counts    []int
	series    []ipidSample
	unwrapped []float64
	times     []float64
}

// midarPass runs one estimation-and-pairing round over the targets
// whose Result indexes are idx (flows indexed alike).
func (r *Resolver) midarPass(idx []int32, flows []netsim.Flow, res *Result, pass int) {
	epoch := r.Clock.Now()
	es := r.EstimationSamples
	sc := &r.scratch
	if cap(sc.samples) < len(idx)*es {
		sc.samples = make([]ipidSample, len(idx)*es)
	}
	if cap(sc.counts) < len(idx) {
		sc.counts = make([]int, len(idx))
	}
	grid := sc.samples[:len(idx)*es]
	counts := sc.counts[:len(idx)]
	for i := range counts {
		counts[i] = 0
	}
	for round := 0; round < es; round++ {
		for i := range idx {
			reply := flows[i].Probe(r.Clock.Now(), 64, netsim.ICMPEcho, uint32(1000+pass*32+round))
			r.observe(reply, false)
			if reply.Type == netsim.EchoReply {
				grid[i*es+counts[i]] = ipidSample{at: r.Clock.Now(), ipid: reply.IPID}
				counts[i]++
			}
			r.Clock.Advance(2 * time.Millisecond)
		}
		r.Clock.Advance(r.EstimationSpacing)
	}

	// The velocity fits are pure computation over the collected sample
	// series, so they shard across workers (the grid and counts are
	// read-only here); per-shard candidate lists concatenate in shard
	// order, preserving the target-order candidate list the pairing
	// stage expects.
	pool := probesched.New(r.Parallelism, nil)
	cands := probesched.Reduce(pool, len(idx),
		func() []candidate { return nil },
		func(out []candidate, i int) []candidate {
			s := grid[i*es : i*es+counts[i]]
			// Tolerate one rate-limited round; three samples still fit a
			// velocity.
			if len(s) < es-1 || len(s) < 3 {
				return out
			}
			c, ok := estimate(s, epoch)
			if !ok {
				return out
			}
			c.idx = idx[i]
			c.flow = &flows[i]
			return append(out, c)
		},
		func(into, from []candidate) []candidate { return append(into, from...) })

	// Candidate pairing: sort by projected counter value and compare
	// each candidate to neighbors within the projection window,
	// including wraparound pairs.
	sort.Slice(cands, func(i, j int) bool { return cands[i].projected < cands[j].projected })
	// The velocity test is a float compare; it goes first, and only
	// compatible pairs pay for the union-find root compare.
	test := func(i, j int) {
		if !velocityCompatible(cands[i].velocity, cands[j].velocity, r.VelocityTolerance) {
			return
		}
		if res.find(cands[i].idx) == res.find(cands[j].idx) {
			return
		}
		if r.monotonicBoundTest(cands[i], cands[j]) {
			res.union(cands[i].idx, cands[j].idx)
			res.MIDARPairs++
		}
	}
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].projected-cands[i].projected > projWindow {
				break
			}
			test(i, j)
		}
	}
	for i := len(cands) - 1; i >= 0 && 65536-cands[i].projected <= projWindow; i-- {
		for j := 0; j < i && cands[j].projected+65536-cands[i].projected <= projWindow; j++ {
			test(i, j)
		}
	}
}

// projWindow is the counter slack between projections of true aliases:
// per-reply increments during the campaign plus residual extrapolation
// error.
const projWindow = 250

// monotonicBoundTest interleaves probes to both addresses in two bursts
// separated by a long gap, unwraps the combined IP-ID series with the
// estimated velocity, and accepts the pair only when every step advances
// and a least-squares line fits the series with small residuals.
func (r *Resolver) monotonicBoundTest(a, b candidate) bool {
	v := (a.velocity + b.velocity) / 2
	series := r.scratch.series[:0]
	collect := func(n int) {
		for i := 0; i < n; i++ {
			for side := 0; side < 2; side++ {
				f := a.flow
				if side == 1 {
					f = b.flow
				}
				// Retry rate-limited probes; a lost sample shrinks the
				// series but does not abort the test.
				for att := 0; att < 3; att++ {
					reply := f.Probe(r.Clock.Now(), 64, netsim.ICMPEcho, uint32(2000+i*4+att))
					r.observe(reply, att > 0)
					if reply.Type == netsim.EchoReply {
						series = append(series, ipidSample{at: r.Clock.Now(), ipid: reply.IPID})
						r.Clock.Advance(500 * time.Millisecond)
						break
					}
					r.Clock.Advance(200 * time.Millisecond)
				}
			}
		}
	}
	collect(r.MBTSamples)
	r.Clock.Advance(10 * time.Minute)
	collect(r.MBTSamples)
	// Hand the (possibly grown) buffer back for the next invocation;
	// this call keeps using series, which is finished with before any
	// other MBT can run (the pairing loop is sequential).
	r.scratch.series = series
	// Demand most of both bursts: the test needs interleaved samples on
	// both sides of the long gap.
	if len(series) < 3*r.MBTSamples {
		return false
	}

	// Velocity-guided unwrap into a cumulative series.
	t0 := series[0].at
	if cap(r.scratch.unwrapped) < len(series) {
		r.scratch.unwrapped = make([]float64, len(series))
		r.scratch.times = make([]float64, len(series))
	}
	unwrapped := r.scratch.unwrapped[:len(series)]
	times := r.scratch.times[:len(series)]
	times[0] = 0
	cur := float64(series[0].ipid)
	for i := 1; i < len(series); i++ {
		dt := series[i].at.Sub(series[i-1].at).Seconds()
		d := float64(int32(series[i].ipid) - int32(series[i-1].ipid))
		expect := v * dt
		k := math.Round((expect - d) / 65536)
		d += 65536 * k
		if d <= 0 {
			return false // not monotonic under the shared-counter model
		}
		cur += d
		unwrapped[i] = cur
		times[i] = series[i].at.Sub(t0).Seconds()
	}
	unwrapped[0] = float64(series[0].ipid)

	// Least-squares line; residuals must stay within the per-reply
	// increment budget for a single shared counter.
	n := float64(len(series))
	var st, sy, stt, sty float64
	for i := range series {
		st += times[i]
		sy += unwrapped[i]
		stt += times[i] * times[i]
		sty += times[i] * unwrapped[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return false
	}
	slope := (n*sty - st*sy) / den
	inter := (sy - slope*st) / n
	const maxResidual = 25.0
	for i := range series {
		res := unwrapped[i] - (inter + slope*times[i])
		if math.Abs(res) > maxResidual {
			return false
		}
	}
	return slope > 0
}
