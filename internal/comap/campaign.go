package comap

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/alias"
	"repro/internal/dnsdb"
	"repro/internal/hostnames"
	"repro/internal/netsim"
	"repro/internal/prefixset"
	"repro/internal/probesched"
	"repro/internal/segfault"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// Campaign is the Phase 1 measurement configuration for one cable
// operator (§5.1).
type Campaign struct {
	Net   *netsim.Network
	DNS   *dnsdb.DB
	Clock *vclock.Clock
	// ISP selects the hostname convention under study.
	ISP string
	// Seed is the scenario seed the probed topology was generated from;
	// it is carried into the Report (generated_seed) so a served
	// artifact names the world it measured. Zero when the caller did
	// not thread one — the campaign itself never consumes it.
	Seed int64
	// VPs are the vantage-point host addresses (the paper used 47 in
	// access, cloud, and transit networks).
	VPs []netip.Addr
	// Announced is the operator's routed address space (BGP-derived in
	// the paper); the /24 sweep enumerates it.
	Announced []netip.Prefix
	// SweepVPs and TargetVPs bound how many VPs probe each /24 and each
	// rDNS-selected target (rotated deterministically for coverage).
	SweepVPs  int
	TargetVPs int

	// Parallelism is the probe-scheduler worker count (0 selects
	// GOMAXPROCS). Collections are byte-identical at any value — see
	// internal/probesched for why — so this is purely a throughput knob.
	Parallelism int
	// MaxTraces caps the total traceroutes submitted across all stages
	// (0 = unlimited): the probe-budget knob of the core options API.
	// Jobs beyond the budget are dropped from the tail of each stage's
	// canonical job list, so a given budget is deterministic too.
	MaxTraces int

	// Resilience opts the campaign's probing into retry/backoff/budget
	// behavior and the per-VP circuit breaker. The zero value keeps the
	// campaign bit-identical to its historical (and golden-digested)
	// behavior: even legitimate timeouts would otherwise be retried,
	// changing every downstream observation.
	Resilience probesched.Resilience

	// TraceWindow, when positive, streams the campaign through the
	// windowed engine: kept traces spill to a segment log in windows of
	// this many traces, and inference replays the log window-at-a-time
	// instead of holding the archive resident. Fault-free campaigns are
	// bit-identical at any window size (the golden-equivalence tests pin
	// this); under an active FaultPlan the time-windowed faults observe
	// slightly different virtual clocks than an unbounded run — still
	// deterministic for fixed settings, but not byte-equal across window
	// sizes. Zero keeps the historical resident archive.
	TraceWindow int
	// SpillDir hosts the segment log (TraceWindow mode only). Empty
	// creates a .spill-* directory under the working directory, removed
	// by Collection.Close; a provided directory is reused and only the
	// log file itself is cleaned up.
	SpillDir string
	// Durable opts the windowed spill into crash-safe mode: every
	// sealed window is fsynced and indexed in an atomically published
	// manifest, a cursor checkpoint lands at every flush boundary, and
	// a campaign restarted over the same SpillDir resumes — re-probing
	// only the windows the crash lost — with bit-identical results.
	// Requires TraceWindow > 0 and an explicit SpillDir (an owned
	// temp directory cannot be found again after a crash).
	Durable bool
	// SpillFS is the filesystem seam durable spill I/O goes through;
	// nil selects the real OS. The crash tests inject segfault plans
	// here — production callers leave it nil.
	SpillFS segfault.FS

	// SkipDirectTargeting disables step 2 (rDNS-selected targets); used
	// by the ablation benches to quantify the paper's 5.3x claim.
	SkipDirectTargeting bool
	// SkipMPLSPass disables the Vanaubel-style follow-up traceroutes
	// and false-edge detection.
	SkipMPLSPass bool
	// SkipAlias disables alias resolution.
	SkipAlias bool
}

// Collection is the raw measurement output of a campaign.
type Collection struct {
	// Paths and StageOf form the resident archive (TraceWindow == 0).
	// Windowed campaigns leave both nil and keep the archive in spill;
	// consumers iterate either shape through NumPaths/EachPath (or the
	// internal foldPaths), never these fields directly.
	Paths []Path
	// StageOf tags each path index with its collection stage: "sweep",
	// "direct", or "mpls".
	StageOf []string
	// spill is the on-disk archive of a windowed campaign; nil when
	// resident. Collection.Close releases it.
	spill *spillArchive
	// Observed is every responsive hop address seen.
	Observed map[netip.Addr]bool
	// ScanTargets are the snapshot addresses matching the operator's
	// router-name regexes.
	ScanTargets []netip.Addr
	// FalsePairs are IP adjacencies identified as MPLS tunnel
	// entry/exit pairs (false links); DirectPairs were confirmed as
	// physically adjacent by a traceroute addressed to the second
	// address (where an LSP cannot hide interior hops).
	FalsePairs  map[[2]netip.Addr]bool
	DirectPairs map[[2]netip.Addr]bool
	// Aliases is the alias-resolution result (nil when skipped).
	Aliases *alias.Result
	// AliasTargets is the address set fed to alias resolution.
	AliasTargets []netip.Addr

	// Stats is the campaign-wide probe-outcome ledger (traceroute and
	// alias probes both land here); Sent == Replied + Lost + RateLimited
	// always. TracesRun / EmptyTraces / TruncatedTraces count whole
	// traces; HopRowsProbed / HopRowsAnswered count hop rows across all
	// traces (answered/probed is the campaign's hop yield). Quarantined
	// lists vantage points the circuit breaker benched. All of this is
	// accounting only — it never feeds inference, and none of it enters
	// the pinned campaign digests.
	Stats           probesched.ProbeStats
	TracesRun       int
	EmptyTraces     int
	TruncatedTraces int
	HopRowsProbed   int
	HopRowsAnswered int
	Quarantined     []netip.Addr

	// Resumed reports what the durable spill log's recovery decided at
	// startup (fresh, resumed at a checkpoint, or complete-replay); nil
	// for non-durable campaigns. Accounting only — resumed campaigns
	// reproduce the uninterrupted collection bit for bit.
	Resumed *traceroute.Resume
}

func (c *Campaign) defaults() {
	if c.SweepVPs == 0 {
		c.SweepVPs = 4
	}
	if c.TargetVPs == 0 {
		c.TargetVPs = 8
	}
}

// engine builds a traceroute engine bound to the campaign clock.
func (c *Campaign) engine() *traceroute.Engine {
	eng := &traceroute.Engine{Net: c.Net, Clock: c.Clock, Attempts: 2, GapLimit: 5}
	eng.ApplyResilience(c.Resilience)
	return eng
}

// Run executes every collection stage and returns the raw observations.
// Within a stage every traceroute is independent, so jobs are built in
// canonical (target, VP-rotation) order, fanned across the probe
// scheduler, and folded back in that same order; stages themselves stay
// sequential barriers because each derives its target list from the
// previous stage's observations.
func (c *Campaign) Run() *Collection {
	col, err := c.RunContext(context.Background())
	if err != nil {
		// Background contexts never cancel; keep the historical
		// no-error signature for the callers that use it.
		panic(fmt.Errorf("comap: campaign aborted: %w", err))
	}
	return col
}

// RunContext is Run with cooperative cancellation: the flush loop
// checks ctx at every flush boundary and, once cancelled, stops before
// submitting the next probe batch and returns ctx's error. The check
// sits on batch boundaries only, so cancellation is digest-neutral —
// whatever a cancelled campaign did probe is exactly the prefix an
// uninterrupted run would have produced. A cancelled durable campaign
// leaves its spill log, manifest, and last checkpoint on disk, so the
// next RunContext over the same SpillDir resumes where it stopped; a
// cancelled non-durable campaign removes its spill (nothing can use
// it).
func (c *Campaign) RunContext(ctx context.Context) (col *Collection, err error) {
	c.defaults()
	col = &Collection{
		Observed:    map[netip.Addr]bool{},
		FalsePairs:  map[[2]netip.Addr]bool{},
		DirectPairs: map[[2]netip.Addr]bool{},
	}
	eng := c.engine()
	pool := probesched.New(c.Parallelism, c.Clock)

	// Windowed mode spills kept traces to a segment log as they fold in.
	// Setup failures panic: a campaign that cannot open its spill file
	// has no degraded mode to fall back to (silently going resident
	// would defeat the caller's memory bound).
	var writer *traceroute.SegmentWriter
	var rs *resumeState
	if c.Durable && c.TraceWindow <= 0 {
		panic(fmt.Errorf("comap: Durable requires TraceWindow > 0 (only windowed campaigns spill)"))
	}
	if c.TraceWindow > 0 {
		if c.Durable && c.SpillDir == "" {
			panic(fmt.Errorf("comap: Durable requires an explicit SpillDir (an owned temp dir cannot be found again after a crash)"))
		}
		sp, err := newSpillArchive(c.SpillDir, c.spillName())
		if err != nil {
			panic(fmt.Errorf("comap: creating spill archive: %w", err))
		}
		col.spill = sp
		if c.Durable {
			fsys := c.SpillFS
			if fsys == nil {
				fsys = segfault.OS
			}
			w, res, err := traceroute.OpenDurableSegmentLog(sp.logPath, c.fingerprint(), fsys)
			if err != nil {
				// Leave the files: whatever is on disk stays resumable.
				panic(fmt.Errorf("comap: opening durable spill log: %w", err))
			}
			writer = w
			col.Resumed = res
			if res.Resumed {
				rs = &resumeState{
					checkpoints: res.Checkpoints,
					cursor:      logCursor{path: sp.logPath},
				}
			}
		} else {
			w, err := traceroute.CreateSegmentLog(sp.logPath)
			if err != nil {
				sp.Close()
				panic(fmt.Errorf("comap: creating spill log: %w", err))
			}
			writer = w
		}
	}

	// Cancellation unwinds as a panic from the flush loop; turn it back
	// into an error here, closing the log file handle but leaving a
	// durable campaign's spill state on disk for the resume.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cc, ok := r.(campaignCancelled)
		if !ok {
			panic(r)
		}
		if rs != nil {
			rs.cursor.close()
		}
		if writer != nil {
			writer.Close()
		}
		if !c.Durable {
			col.spill.Close()
		}
		col, err = nil, cc.err
	}()

	// The /24 sweep dominates job volume, so its size (clamped by the
	// probe budget) presizes the dedup set and job list: the dedup map
	// showed up at ~30% of collection CPU in profiles, most of it
	// incremental rehash growth.
	var sweep []netip.Addr
	for _, pfx := range c.Announced {
		sweep = append(sweep, enumerate24s(pfx)...)
	}
	hint := len(sweep) * c.SweepVPs * 2
	if c.MaxTraces > 0 && hint > c.MaxTraces*2 {
		hint = c.MaxTraces * 2
	}
	// The dedup set keys IPv4 (src,dst) pairs through the shared
	// prefixset.PairKey4 packing — injective, since each address is
	// exactly its 32-bit value — which more than halves the set's
	// footprint vs [2]netip.Addr keys (48-byte keys, most of it Addr
	// internals). Non-IPv4 pairs (none in the cable campaigns, but the
	// API allows them) fall back to a wide map.
	seen := make(map[uint64]bool, hint) // packed (src,dst) pairs already traced
	var seenWide map[[2]netip.Addr]bool
	submitted := 0

	// The circuit breaker benches dead VPs between stages: Record runs
	// only on the in-order fold goroutine, and Quarantined is consulted
	// only while building the next stage's job list (stages are
	// sequential barriers), so its decisions are worker-count invariant.
	breaker := probesched.NewBreaker(c.Resilience.BreakerThreshold)

	// Windowed mode also bounds the pending-job list: instead of
	// accumulating a whole stage's jobs before scheduling, the list
	// drains through the scheduler every few windows' worth. Fault-free
	// probing is time-independent (replies are pure functions of seed
	// and flow), so splitting a stage into several scheduler batches
	// folds the identical trace sequence and advances the clock by the
	// identical total — the windowed golden tests pin this. Resident
	// mode keeps the one-batch-per-stage shape (under an active fault
	// plan, batch boundaries are clock-visible).
	jobFlushEvery := 0
	jobsCap := hint / 2
	if c.TraceWindow > 0 {
		jobFlushEvery = 4 * c.TraceWindow
		if jobFlushEvery < 1024 {
			jobFlushEvery = 1024
		}
		if jobsCap > jobFlushEvery {
			jobsCap = jobFlushEvery
		}
	}
	jobs := make([]probesched.Request, 0, jobsCap)
	curStage := ""
	var flush func()
	add := func(src, dst netip.Addr) {
		if c.MaxTraces > 0 && submitted+len(jobs) >= c.MaxTraces {
			return
		}
		if breaker.Quarantined(src) {
			return
		}
		if key, ok := prefixset.PairKey4(src, dst); ok {
			if seen[key] {
				return
			}
			seen[key] = true
		} else {
			if seenWide == nil {
				seenWide = map[[2]netip.Addr]bool{}
			}
			key := [2]netip.Addr{src, dst}
			if seenWide[key] {
				return
			}
			seenWide[key] = true
		}
		jobs = append(jobs, probesched.Request{Src: src, Dst: dst})
		if jobFlushEvery > 0 && len(jobs) >= jobFlushEvery {
			flush()
		}
	}
	// Kept paths carve their Hops/Gaps out of shared arena chunks instead
	// of two exact-size allocations per path; the chunks stay alive for
	// the Collection's lifetime through the path slices, and each carve is
	// capacity-clamped so an append on one path can never bleed into the
	// next path's region.
	var hopArena []netip.Addr
	var gapArena []bool
	const arenaChunk = 4096

	// Durable campaigns track the flush schedule: flushOrdinal counts
	// completed flushes (live or restored), and lastCursor is the most
	// recent checkpoint state, re-used by MarkComplete.
	flushOrdinal := 0
	var lastCursor resumeCursor
	takeCursor := func(stage string) resumeCursor {
		return resumeCursor{
			Stage:           stage,
			Flush:           flushOrdinal,
			Submitted:       submitted,
			ClockNS:         c.Clock.Now().UnixNano(),
			TracesRun:       col.TracesRun,
			EmptyTraces:     col.EmptyTraces,
			TruncatedTraces: col.TruncatedTraces,
			HopRowsProbed:   col.HopRowsProbed,
			HopRowsAnswered: col.HopRowsAnswered,
			Stats:           col.Stats,
			Paths:           col.NumPaths(),
			Breaker:         breaker.State(),
		}
	}

	// flush runs the accumulated jobs through the scheduler, streaming
	// each trace into the collection in submission order while later
	// jobs are still probing (traceroute.FoldTraces). Windowed mode
	// encodes kept traces into the spill log instead of carving resident
	// paths; the scheduler's backpressure keeps in-flight chunks bounded
	// while this fold writes to disk.
	//
	// Durable mode adds two behaviors at the flush boundary. Going in,
	// a flush whose ordinal has a surviving checkpoint is *restored*
	// instead of probed: its traces are already in the recovered log,
	// so the flush drops the (identically regenerated) job batch,
	// streams the log windows through Observed and the simulator's
	// IP-ID warm-up, and restores the checkpoint cursor. Going out, a
	// live flush seals the open window and checkpoints the new cursor,
	// making everything up to this boundary crash-recoverable.
	flush = func() {
		if cerr := ctx.Err(); cerr != nil {
			// The pending batch was never submitted; the previous flush's
			// checkpoint already covers everything probed so far.
			panic(campaignCancelled{cerr})
		}
		stage := curStage
		if rs != nil && flushOrdinal < len(rs.checkpoints) {
			chk := rs.checkpoints[flushOrdinal]
			var cur resumeCursor
			if jerr := json.Unmarshal(chk.State, &cur); jerr != nil {
				panic(fmt.Errorf("comap: decoding resume checkpoint %d: %w", flushOrdinal, jerr))
			}
			if cur.Flush != flushOrdinal+1 || cur.Stage != stage ||
				cur.Submitted != submitted+len(jobs) || cur.Paths != chk.Paths {
				panic(fmt.Errorf("comap: resume regeneration diverged at flush %d (stage %q->%q, submitted %d->%d): refusing to replay a log this configuration did not write",
					flushOrdinal, cur.Stage, stage, cur.Submitted, submitted+len(jobs)))
			}
			submitted += len(jobs)
			jobs = jobs[:0]
			rs.cursor.advanceTo(chk.Paths, func(tv traceroute.TraceView, _ string) {
				for k := 0; k < tv.NumHops(); k++ {
					if !tv.HopResponded(k) {
						continue
					}
					h := tv.Hop(k)
					col.Observed[h.Addr] = true
					c.Net.WarmReply(h.Addr, h.TTL == 1, h.Type == netsim.TTLExceeded)
				}
			})
			col.spill.nPaths = chk.Paths
			col.TracesRun = cur.TracesRun
			col.EmptyTraces = cur.EmptyTraces
			col.TruncatedTraces = cur.TruncatedTraces
			col.HopRowsProbed = cur.HopRowsProbed
			col.HopRowsAnswered = cur.HopRowsAnswered
			col.Stats = cur.Stats
			breaker.Restore(cur.Breaker)
			c.Clock.AdvanceTo(time.Unix(0, cur.ClockNS))
			lastCursor = cur
			flushOrdinal++
			return
		}
		if rs != nil {
			// First live flush: every restored flush precedes it, so the
			// recovered-log read cursor is spent.
			rs.cursor.close()
			if writer == nil {
				panic(fmt.Errorf("comap: complete recovered log but regeneration wants to probe at flush %d: regeneration diverged", flushOrdinal))
			}
		}
		submitted += len(jobs)
		eng.FoldTraces(pool, jobs, func(_ int, tv traceroute.TraceView) {
			// Count responsive hops first: all-timeout traces (most of
			// the /24 sweep) are dropped without allocating, and kept
			// paths get exactly-sized slices. Hop rows live in the
			// chunk's columnar store, valid exactly for this fold call.
			n := tv.NumHops()
			resp := 0
			for k := 0; k < n; k++ {
				if tv.HopResponded(k) {
					resp++
				}
			}
			col.TracesRun++
			col.Stats.Add(tv.Stats())
			col.HopRowsProbed += n
			col.HopRowsAnswered += resp
			if tv.Truncated {
				col.TruncatedTraces++
			}
			breaker.Record(tv.Src, resp == 0)
			if resp == 0 {
				col.EmptyTraces++
				return
			}
			if writer != nil {
				for k := 0; k < n; k++ {
					if tv.HopResponded(k) {
						col.Observed[tv.Hop(k).Addr] = true
					}
				}
				if err := writer.Append(stage, tv); err != nil {
					panic(fmt.Errorf("comap: spilling trace: %w", err))
				}
				col.spill.nPaths++
				if writer.Count() >= c.TraceWindow {
					if err := writer.Seal(); err != nil {
						panic(fmt.Errorf("comap: sealing window: %w", err))
					}
				}
				return
			}
			if cap(hopArena)-len(hopArena) < resp {
				grow := arenaChunk
				if grow < resp {
					grow = resp
				}
				hopArena = make([]netip.Addr, 0, grow)
				gapArena = make([]bool, 0, grow)
			}
			lo := len(hopArena)
			hopArena = hopArena[:lo+resp]
			gapArena = gapArena[:lo+resp]
			p := Path{
				Src: tv.Src, Dst: tv.Dst, Reached: tv.Reached,
				Hops: hopArena[lo : lo+resp : lo+resp],
				Gaps: gapArena[lo : lo+resp : lo+resp],
			}
			gap := false
			w := 0
			for k := 0; k < n; k++ {
				if !tv.HopResponded(k) {
					gap = true
					continue
				}
				h := tv.Hop(k)
				p.Hops[w] = h.Addr
				p.Gaps[w] = gap
				w++
				gap = false
				col.Observed[h.Addr] = true
			}
			col.Paths = append(col.Paths, p)
			col.StageOf = append(col.StageOf, stage)
		})
		jobs = jobs[:0]
		flushOrdinal++
		if c.Durable && writer != nil {
			// Seal the open window (Checkpoint seals first) and publish
			// the cursor: the durability boundary every crash between
			// here and the next checkpoint rolls back to. Extra seals at
			// flush boundaries are replay-neutral — window layout never
			// enters the digests.
			lastCursor = takeCursor(stage)
			buf, merr := json.Marshal(lastCursor)
			if merr != nil {
				panic(fmt.Errorf("comap: encoding resume cursor: %w", merr))
			}
			if cerr := writer.Checkpoint(col.spill.nPaths, buf); cerr != nil {
				panic(fmt.Errorf("comap: checkpointing spill log: %w", cerr))
			}
		}
	}

	// Stage 1: traceroute to an address in every /24 of the announced
	// space to expose at least one router per EdgeCO.
	curStage = "sweep"
	for i, dst := range sweep {
		for k := 0; k < c.SweepVPs && k < len(c.VPs); k++ {
			add(c.VPs[(i+k*7)%len(c.VPs)], dst)
		}
	}
	flush()

	// Stage 2: traceroute to every address whose snapshot rDNS matches
	// the operator's router-name regexes. Both the regex scan and the
	// hostname-grammar sweep shard across the campaign workers; shard
	// hit lists concatenate in shard order, preserving the
	// address-sorted target order the probe schedule depends on.
	re := hostnames.TargetRegex(c.ISP)
	scan := c.DNS.ScanSnapshotParallel(re, c.Parallelism)
	col.ScanTargets = probesched.Reduce(pool, len(scan),
		func() []netip.Addr { return nil },
		func(out []netip.Addr, i int) []netip.Addr {
			if _, ok := hostnames.Parse(scan[i].Name); ok {
				out = append(out, scan[i].Addr)
			}
			return out
		},
		func(into, from []netip.Addr) []netip.Addr { return append(into, from...) })
	if !c.SkipDirectTargeting {
		curStage = "direct"
		for i, dst := range col.ScanTargets {
			for k := 0; k < c.TargetVPs && k < len(c.VPs); k++ {
				add(c.VPs[(i+k*11)%len(c.VPs)], dst)
			}
		}
		flush()
	}

	// Stage 3: traceroute to every intermediate address observed, to
	// reveal MPLS tunnel interiors (Vanaubel et al.), then flag tunnel
	// entry/exit pairs as false links. The observed set goes through
	// the prefix-set engine: canonical iteration IS ascending address
	// order (v4 before v6, same as the sort it replaces), with no
	// intermediate slice to sort.
	if !c.SkipMPLSPass {
		curStage = "mpls"
		obs := prefixset.NewSet()
		for a := range col.Observed {
			obs.AddAddr(a)
		}
		inter := obs.Addrs()
		for i, dst := range inter {
			for k := 0; k < 3 && k < len(c.VPs); k++ {
				add(c.VPs[(i+k*13)%len(c.VPs)], dst)
			}
		}
		flush()
	}
	// The archive is complete: seal and close the spill log before the
	// first replaying pass (findFalsePairs and everything downstream).
	// Durable campaigns mark the manifest complete first, so a crash
	// from here on resumes as a pure replay with no re-collection.
	if rs != nil {
		rs.cursor.close()
	}
	if writer != nil {
		if c.Durable {
			buf, merr := json.Marshal(lastCursor)
			if merr != nil {
				panic(fmt.Errorf("comap: encoding resume cursor: %w", merr))
			}
			if cerr := writer.MarkComplete(col.spill.nPaths, buf); cerr != nil {
				panic(fmt.Errorf("comap: completing spill manifest: %w", cerr))
			}
		}
		if err := writer.Close(); err != nil {
			panic(fmt.Errorf("comap: closing spill log: %w", err))
		}
	}
	// Post-collection passes run on the (now durable) archive; a cancel
	// landing here still aborts promptly, and a durable campaign
	// resumes as a complete-replay.
	if cerr := ctx.Err(); cerr != nil {
		panic(campaignCancelled{cerr})
	}
	if !c.SkipMPLSPass {
		findFalsePairs(col, pool)
	}

	// Alias resolution over the rDNS-selected addresses, every observed
	// operator address, and their /30 subnet neighbors (Appendix B.1).
	// Mercator probing runs globally; the IP-ID stage runs per regional
	// network, as the paper does ("all IP addresses routed by each
	// regional network"), which also keeps counter-projection collisions
	// rare.
	if !c.SkipAlias {
		col.AliasTargets = c.aliasTargets(col)
		res := alias.NewResult()
		resolver := &alias.Resolver{
			Net: c.Net, Clock: c.Clock, VP: c.VPs[0],
			Parallelism: c.Parallelism,
			Stats:       &col.Stats,
		}
		resolver.MercatorInto(col.AliasTargets, res)
		for _, part := range c.partitionByRegion(col) {
			resolver.MIDARInto(part, res)
		}
		// All evidence is in; drop the per-target union-find state so a
		// retained collection holds only the multi-member groups.
		res.Compact()
		col.Aliases = res
	}
	col.Quarantined = breaker.QuarantinedVPs()
	return col, nil
}

// partitionByRegion splits the alias targets by regional network: named
// addresses by their rDNS region tag, unnamed addresses by the dominant
// region of the paths they appear in, and the remainder into bounded
// chunks.
func (c *Campaign) partitionByRegion(col *Collection) [][]netip.Addr {
	regionOfAddr := map[netip.Addr]string{}
	for _, a := range col.AliasTargets {
		if name, ok := c.DNS.Name(a); ok {
			if info, ok := hostnames.Parse(name); ok && info.ISP == c.ISP {
				if info.Backbone {
					regionOfAddr[a] = "backbone"
				} else if info.Region != "" {
					regionOfAddr[a] = info.Region
				}
			}
		}
	}
	// Attribute unnamed addresses by path context. The same walk
	// records which backbone addresses co-occur with each region's
	// hops, so scaled topologies can bound the backbone ride-along
	// (below) to the PoPs that actually serve the region.
	votes := map[netip.Addr]map[string]int{}
	bbSeen := map[string]map[netip.Addr]bool{}
	col.EachPath(func(_ int, p Path, _ string) {
		// Dominant region among named hops.
		count := map[string]int{}
		for _, h := range p.Hops {
			if r, ok := regionOfAddr[h]; ok && r != "backbone" {
				count[r]++
			}
		}
		for _, h := range p.Hops {
			if regionOfAddr[h] != "backbone" {
				continue
			}
			for r := range count {
				if bbSeen[r] == nil {
					bbSeen[r] = map[netip.Addr]bool{}
				}
				bbSeen[r][h] = true
			}
		}
		dom, tied := majority(count)
		if dom == "" || tied {
			return
		}
		for _, h := range p.Hops {
			if _, ok := regionOfAddr[h]; ok {
				continue
			}
			if votes[h] == nil {
				votes[h] = map[string]int{}
			}
			votes[h][dom]++
		}
	})
	for a, v := range votes {
		if top, tied := majority(v); !tied && top != "" {
			regionOfAddr[a] = top
		}
	}

	parts := map[string][]netip.Addr{}
	var misc []netip.Addr
	for _, a := range col.AliasTargets {
		if r, ok := regionOfAddr[a]; ok {
			parts[r] = append(parts[r], a)
		} else {
			misc = append(misc, a)
		}
	}
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// bbRideCap bounds the per-region backbone ride-along. Paper-size
	// topologies stay far under it, so every regional partition keeps
	// the full backbone set exactly as before; scaled topologies (where
	// the backbone interface count grows with the region count, and
	// partitions x backbone would make the IP-ID stage quadratic) trim
	// the ride-along to the backbone addresses co-observed on the
	// region's own paths.
	const bbRideCap = 1000
	backbone := parts["backbone"]
	var out [][]netip.Addr
	for _, k := range keys {
		part := parts[k]
		if k != "backbone" {
			// Stale rDNS sometimes hangs a regional name on a backbone
			// router interface; grouping it with the backbone routers
			// is what corrects the name, so the backbone addresses ride
			// along in every regional partition.
			ride := backbone
			if len(backbone) > bbRideCap {
				ride = ride[:0:0]
				for _, a := range backbone {
					if bbSeen[k][a] {
						ride = append(ride, a)
					}
				}
			}
			part = append(append([]netip.Addr{}, part...), ride...)
		}
		out = append(out, part)
	}
	// Bound the unattributed chunk size.
	const chunk = 2000
	for len(misc) > 0 {
		n := chunk
		if n > len(misc) {
			n = len(misc)
		}
		out = append(out, misc[:n])
		misc = misc[n:]
	}
	return out
}

// enumerate24s lists the .1 address of every /24 inside pfx.
func enumerate24s(pfx netip.Prefix) []netip.Addr {
	if !pfx.Addr().Is4() {
		return nil
	}
	if pfx.Bits() > 24 {
		return []netip.Addr{pfx.Addr().Next()}
	}
	n := 1 << (24 - pfx.Bits())
	out := make([]netip.Addr, 0, n)
	b := pfx.Masked().Addr().As4()
	for i := 0; i < n; i++ {
		base := (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8) + uint32(i)<<8
		out = append(out, netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), 1}))
	}
	return out
}

// aliasTargets assembles the alias-resolution input set as prefix-set
// algebra instead of per-address map scans:
//
//	targets = scan ∪ ((∪ /30-blocks of observed ∩ announced) ∩ announced)
//
// An observed in-ISP address pulls in its whole /30 (itself plus the
// Appendix B.1 subnet neighbors), clipped back to the announced space
// — the intersection replaces the old per-neighbor inISP linear scan
// over Announced, which at scaled route tables was a measurable
// fraction of the alias stage. Scan-matched addresses join
// unconditionally: interconnect subnets live in the neighbor's space.
// Address enumeration over the aggregated set is ascending with
// overlap collapsed, byte-identical to the sorted map-key order it
// replaces (the golden alias digest pins this).
func (c *Campaign) aliasTargets(col *Collection) []netip.Addr {
	announced := prefixset.NewSet(c.Announced...)
	blocks := prefixset.NewSet()
	for a := range col.Observed {
		if !announced.Contains(a) {
			continue
		}
		if a.Is4() {
			if p, err := a.Prefix(30); err == nil {
				blocks.Add(p)
				continue
			}
		}
		blocks.AddAddr(a)
	}
	targets := blocks.Intersect(announced)
	// Every address whose rDNS matched the operator's regexes belongs in
	// the alias set even when it falls outside the announced blocks.
	for _, a := range col.ScanTargets {
		targets.AddAddr(a)
	}
	return targets.Addrs()
}

// subnet30Neighbors returns the other (up to three) addresses of a's
// /30 in out[:n]; the fixed-size return keeps the per-address call
// allocation-free.
func subnet30Neighbors(a netip.Addr) (out [3]netip.Addr, n int) {
	if !a.Is4() {
		return out, 0
	}
	b := a.As4()
	base := b[3] &^ 3
	for off := byte(0); off < 4; off++ {
		nb := netip.AddrFrom4([4]byte{b[0], b[1], b[2], base | off})
		if nb != a {
			out[n] = nb
			n++
		}
	}
	return out, n
}

// p2pMate returns the interface address expected on the far side of a
// point-to-point link from a: the other usable address of a's /31 or
// /30 (bits as inferred for the operator).
func p2pMate(a netip.Addr, bits int) (netip.Addr, bool) {
	if !a.Is4() {
		return netip.Addr{}, false
	}
	b := a.As4()
	switch bits {
	case 31:
		return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] ^ 1}), true
	case 30:
		switch b[3] & 3 {
		case 1:
			return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] + 1}), true
		case 2:
			return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3] - 1}), true
		}
	}
	return netip.Addr{}, false
}

// findFalsePairs applies the Vanaubel test: a pair adjacent in some path
// but separated by intermediate hops in a path destined to the pair's
// second address is an MPLS entry/exit artifact.
//
// Both scans are forward path folds (no random access into the
// archive), so the test runs identically over resident and spilled
// collections: pass one collects the distinct adjacent pairs, pass two
// checks every reached path against the pairs ending at its
// destination. The verdicts are set inserts ORed over paths, so the
// pass-two iteration order (unlike the historical pair-major loop) is
// immaterial. The adjacency set is keyed by prefixset.PairKey4 (8
// bytes per IPv4 pair instead of 48) and grows from empty: distinct
// adjacencies are a small fraction of the answered hop rows, so no
// row-derived presize is worth its slots. The reference [2]netip.Addr
// implementation lives in falsepairs_ref_test.go.
func findFalsePairs(col *Collection, pool *probesched.Pool) {
	adj := foldPaths(pool, col,
		func() adjacency { return adjacency{v4: map[uint64]struct{}{}} },
		func(set adjacency, _ int, p Path, _ string) adjacency {
			for i := 1; i < len(p.Hops); i++ {
				if !p.Gaps[i] {
					set.add(p.Hops[i-1], p.Hops[i])
				}
			}
			return set
		},
		adjacency.merge)
	// Invert: for each adjacency (a, b), the candidate first elements a
	// keyed by the pair's second address b — pass two looks up a path's
	// own destination instead of scanning paths per pair.
	pairsBySecond := make(map[netip.Addr][]netip.Addr, len(adj.v4)+len(adj.wide))
	for k := range adj.v4 {
		a, b := prefixset.UnpackPairKey4(k)
		pairsBySecond[b] = append(pairsBySecond[b], a)
	}
	for pair := range adj.wide {
		pairsBySecond[pair[1]] = append(pairsBySecond[pair[1]], pair[0])
	}
	type verdicts struct {
		falsePairs  map[[2]netip.Addr]bool
		directPairs map[[2]netip.Addr]bool
	}
	v := foldPaths(pool, col,
		func() verdicts {
			return verdicts{map[[2]netip.Addr]bool{}, map[[2]netip.Addr]bool{}}
		},
		func(acc verdicts, _ int, p Path, _ string) verdicts {
			if !p.Reached {
				return acc
			}
			b := p.Dst
			cands := pairsBySecond[b]
			if len(cands) == 0 {
				return acc
			}
			// Last occurrences, matching the historical scan exactly.
			bPos := -1
			for i, h := range p.Hops {
				if h == b {
					bPos = i
				}
			}
			for _, a := range cands {
				aPos := -1
				for i, h := range p.Hops {
					if h == a {
						aPos = i
					}
				}
				switch {
				case aPos >= 0 && bPos > aPos+1:
					// Separated by revealed interior hops: tunnel artifact.
					acc.falsePairs[[2]netip.Addr{a, b}] = true
				case aPos >= 0 && bPos == aPos+1 && !p.Gaps[bPos]:
					// Still adjacent when the LSP cannot hide anything:
					// genuine physical link.
					acc.directPairs[[2]netip.Addr{a, b}] = true
				}
			}
			return acc
		},
		func(into, from verdicts) verdicts {
			for k := range from.falsePairs {
				into.falsePairs[k] = true
			}
			for k := range from.directPairs {
				into.directPairs[k] = true
			}
			return into
		})
	col.FalsePairs, col.DirectPairs = v.falsePairs, v.directPairs
}

// adjacency is the distinct set of gap-free adjacent hop pairs: IPv4
// pairs packed by prefixset.PairKey4, anything else (IPv6, 4-in-6
// mapped) in wide, which stays nil until such a pair shows up.
type adjacency struct {
	v4   map[uint64]struct{}
	wide map[[2]netip.Addr]struct{}
}

func (s *adjacency) add(a, b netip.Addr) {
	if k, ok := prefixset.PairKey4(a, b); ok {
		s.v4[k] = struct{}{}
		return
	}
	if s.wide == nil {
		s.wide = map[[2]netip.Addr]struct{}{}
	}
	s.wide[[2]netip.Addr{a, b}] = struct{}{}
}

// merge folds the smaller set of each family into the larger.
func (into adjacency) merge(from adjacency) adjacency {
	into.v4 = mergeSet(into.v4, from.v4)
	into.wide = mergeSet(into.wide, from.wide)
	return into
}

func mergeSet[K comparable](into, from map[K]struct{}) map[K]struct{} {
	if len(from) > len(into) {
		into, from = from, into
	}
	for k := range from {
		into[k] = struct{}{}
	}
	return into
}
