package comap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netsim"
	"repro/internal/prefixset"
	"repro/internal/probesched"
	"repro/internal/segfault"
	"repro/internal/traceroute"
)

// collector carries one campaign's collection state across
// RunContext's stages. It is single-goroutine: the scheduler hands fold
// each trace in submission order on the caller's goroutine.
type collector struct {
	c       *Campaign
	ctx     context.Context
	col     *Collection
	eng     *traceroute.Engine
	pool    *probesched.Pool
	breaker *probesched.Breaker
	// writer is the open spill log: nil when resident, after finish,
	// or over a complete recovered log.
	writer *traceroute.SegmentWriter

	// The dedup set keys IPv4 (src,dst) pairs through the shared
	// prefixset.PairKey4 packing — injective, since each address is
	// exactly its 32-bit value — which more than halves the set's
	// footprint vs [2]netip.Addr keys (48-byte keys, most of it Addr
	// internals). Non-IPv4 pairs (none in the cable campaigns, but the
	// API allows them) fall back to a wide map.
	seen     map[uint64]bool
	seenWide map[[2]netip.Addr]bool

	// jobs is the stage's pending batch, drained every flushEvery jobs
	// in windowed mode (0 = once per stage); submitted counts the jobs
	// handed to the scheduler (the MaxTraces budget cursor).
	jobs       []probesched.Request
	flushEvery int
	stage      string
	submitted  int

	// Durable campaigns: flushes counts completed flushes, live or
	// restored, and last is the latest checkpoint cursor. A resumed
	// campaign restores the flushes its surviving checkpoints cover
	// from the recovered log.
	flushes     int
	last        resumeCursor
	checkpoints []traceroute.Checkpoint
	recovered   *traceroute.SegmentReader
	seg         traceroute.Segment

	// Reused projection scratch for keep.
	hopBuf []netip.Addr
	gapBuf []bool
	idBuf  []AddrID
}

// newCollector prepares a campaign's collection for a sweep of n
// targets. Windowed mode opens the spill log here: a campaign that
// cannot open it fails instead of going resident, which would defeat
// the caller's memory bound.
func (c *Campaign) newCollector(ctx context.Context, pool *probesched.Pool, n int) (*collector, error) {
	if c.Durable && c.TraceWindow <= 0 {
		return nil, errors.New("comap: Durable requires TraceWindow > 0 (only windowed campaigns spill)")
	}
	if c.Durable && c.SpillDir == "" {
		return nil, errors.New("comap: Durable requires an explicit SpillDir (an owned temp dir cannot be found again after a crash)")
	}
	// The /24 sweep dominates job volume, so its size (clamped by the
	// probe budget) presizes the dedup set and job list: the dedup map
	// showed up at ~30% of collection CPU in profiles, most of it
	// incremental rehash growth.
	hint := n * c.SweepVPs * 2
	if c.MaxTraces > 0 && hint > c.MaxTraces*2 {
		hint = c.MaxTraces * 2
	}
	eng := &traceroute.Engine{Net: c.Net, Clock: c.Clock, Attempts: 2, GapLimit: 5}
	eng.ApplyResilience(c.Resilience)
	k := &collector{
		c: c, ctx: ctx, pool: pool, eng: eng,
		col: &Collection{ids: map[netip.Addr]AddrID{}},
		// The circuit breaker benches dead VPs between stages: Record
		// runs only in fold, and Quarantined is consulted only while
		// building the next stage's job list (stages are sequential
		// barriers), so its decisions are worker-count invariant.
		breaker: probesched.NewBreaker(c.Resilience.BreakerThreshold),
		seen:    make(map[uint64]bool, hint),
	}
	// Windowed mode also bounds the pending-job list. Fault-free
	// probing is time-independent (replies are pure functions of seed
	// and flow), so splitting a stage into several scheduler batches
	// folds the identical trace sequence and advances the clock by the
	// identical total — the windowed golden tests pin this. Resident
	// mode keeps one batch per stage (under an active fault plan, batch
	// boundaries are clock-visible).
	jobsCap := hint / 2
	if c.TraceWindow > 0 {
		k.flushEvery = max(4*c.TraceWindow, 1024)
		jobsCap = min(jobsCap, k.flushEvery)
	}
	k.jobs = make([]probesched.Request, 0, jobsCap)
	if c.TraceWindow <= 0 {
		return k, nil
	}

	sp, err := newSpillArchive(c.SpillDir, c.spillName())
	if err != nil {
		return nil, fmt.Errorf("comap: creating spill archive: %w", err)
	}
	k.col.spill = sp
	if !c.Durable {
		if k.writer, err = traceroute.CreateSegmentLog(sp.logPath); err != nil {
			sp.Close()
			return nil, fmt.Errorf("comap: creating spill log: %w", err)
		}
		return k, nil
	}
	fsys := c.SpillFS
	if fsys == nil {
		fsys = segfault.OS
	}
	w, res, err := traceroute.OpenDurableSegmentLog(sp.logPath, c.fingerprint(), fsys)
	if err != nil {
		// Leave the files: whatever is on disk stays resumable.
		return nil, fmt.Errorf("comap: opening durable spill log: %w", err)
	}
	k.writer, k.col.Resumed = w, res
	if res.Resumed {
		k.checkpoints = res.Checkpoints
		if k.recovered, err = traceroute.OpenSegmentLog(sp.logPath); err != nil {
			k.release()
			return nil, fmt.Errorf("comap: replaying recovered spill log: %w", err)
		}
	}
	return k, nil
}

// probe runs one collection stage: target i is traced from VPs i,
// i+stride, ... (up to vps of them), in canonical (target, rotation)
// order, skipping jobs past the probe budget, from a quarantined VP, or
// already traced. Stages are sequential barriers: each ends in a flush.
func (k *collector) probe(stage string, targets []netip.Addr, vps, stride int) error {
	c := k.c
	k.stage = stage
	nVP := len(c.VPs)
	for i, dst := range targets {
		for j := 0; j < vps && j < nVP; j++ {
			src := c.VPs[(i+j*stride)%nVP]
			if c.MaxTraces > 0 && k.submitted+len(k.jobs) >= c.MaxTraces {
				continue
			}
			if k.breaker.Quarantined(src) {
				continue
			}
			if key, ok := prefixset.PairKey4(src, dst); ok {
				if k.seen[key] {
					continue
				}
				k.seen[key] = true
			} else {
				if k.seenWide == nil {
					k.seenWide = map[[2]netip.Addr]bool{}
				}
				key := [2]netip.Addr{src, dst}
				if k.seenWide[key] {
					continue
				}
				k.seenWide[key] = true
			}
			k.jobs = append(k.jobs, probesched.Request{Src: src, Dst: dst})
			if k.flushEvery > 0 && len(k.jobs) >= k.flushEvery {
				if err := k.flush(); err != nil {
					return err
				}
			}
		}
	}
	return k.flush()
}

// flush runs the pending jobs through the scheduler, streaming each
// trace into fold in submission order while later jobs are still
// probing (traceroute.FoldTraces). A cancelled context stops it before
// it submits anything, so the previous checkpoint covers all probed
// work. A flush a surviving checkpoint covers is restored instead, and
// a live durable flush ends in a checkpoint.
func (k *collector) flush() error {
	if err := k.ctx.Err(); err != nil {
		return err
	}
	if k.flushes < len(k.checkpoints) {
		return k.restore(k.checkpoints[k.flushes])
	}
	if k.c.Durable && k.writer == nil {
		panic(fmt.Errorf("comap: complete recovered log but regeneration wants to probe at flush %d: regeneration diverged", k.flushes))
	}
	k.submitted += len(k.jobs)
	var err error
	k.eng.FoldTraces(k.pool, k.jobs, func(_ int, tv traceroute.TraceView) {
		// After a spill failure the rest of the batch still probes (a
		// batch cannot be stopped midway) but is not filed.
		if err == nil {
			err = k.fold(&tv)
		}
	})
	k.jobs = k.jobs[:0]
	k.flushes++
	if err != nil || !k.c.Durable {
		return err
	}
	return k.checkpoint(false)
}

// fold files one probed trace: every trace counts in the probe ledger
// and the breaker, and those with a responsive hop enter the archive
// and, in windowed mode, the spill log, which seals each full window.
func (k *collector) fold(tv *traceroute.TraceView) error {
	src, dst, hops, kept := k.keep(k.stage, tv)
	col := k.col
	col.TracesRun++
	col.Stats.Add(tv.Stats())
	col.HopRowsProbed += tv.NumHops()
	col.HopRowsAnswered += len(hops)
	if tv.Truncated {
		col.TruncatedTraces++
	}
	k.breaker.Record(tv.Src, !kept)
	if !kept {
		col.EmptyTraces++
		return nil
	}
	if k.writer == nil {
		return nil
	}
	// The log's symbols are the archive's AddrIDs (both are first-seen
	// over the same kept traces), so the writer takes keep's IDs.
	if err := k.writer.Append(k.stage, *tv, src, dst, hops); err != nil {
		return fmt.Errorf("comap: spilling trace: %w", err)
	}
	if k.writer.Count() >= k.c.TraceWindow {
		if err := k.writer.Seal(); err != nil {
			return fmt.Errorf("comap: sealing window: %w", err)
		}
	}
	return nil
}

// keep projects a trace onto its responsive hops (with gap flags) in
// reused scratch and, unless there are none (most of the /24 sweep),
// files it into the archive, returning its AddrIDs (see
// Collection.keep). Hop rows live in the chunk's (or the recovered
// segment's) columnar store, valid exactly for the call.
func (k *collector) keep(stage string, tv *traceroute.TraceView) (src, dst AddrID, hops []AddrID, kept bool) {
	k.hopBuf, k.gapBuf = k.hopBuf[:0], k.gapBuf[:0]
	gap := false
	for j := 0; j < tv.NumHops(); j++ {
		if !tv.HopResponded(j) {
			gap = true
			continue
		}
		k.hopBuf = append(k.hopBuf, tv.Hop(j).Addr)
		k.gapBuf = append(k.gapBuf, gap)
		gap = false
	}
	if len(k.hopBuf) == 0 {
		return 0, 0, nil, false
	}
	src, dst, k.idBuf = k.col.keep(stage, tv.Src, tv.Dst, tv.Reached, k.hopBuf, k.gapBuf, k.idBuf)
	return src, dst, k.idBuf, true
}

// restore stands in for a flush whose checkpoint survived: the
// (identically regenerated) jobs are dropped, the log's windows up to
// the checkpoint are re-interned (the same IDs in the same order) and
// streamed through the simulator's IP-ID warm-up, and the cursor is
// restored. A regeneration that does not reproduce the checkpointed
// schedule is a bug, and panics.
func (k *collector) restore(chk traceroute.Checkpoint) error {
	var cur resumeCursor
	if err := json.Unmarshal(chk.State, &cur); err != nil {
		return fmt.Errorf("comap: decoding resume checkpoint %d: %w", k.flushes, err)
	}
	pending := k.submitted + len(k.jobs)
	if cur.Flush != k.flushes+1 || cur.Stage != k.stage || cur.Submitted != pending || cur.Paths != chk.Paths {
		panic(fmt.Errorf("comap: resume regeneration diverged at flush %d (stage %q->%q, submitted %d->%d): refusing to replay a log this configuration did not write",
			k.flushes, cur.Stage, k.stage, cur.Submitted, pending))
	}
	k.submitted = pending
	k.jobs = k.jobs[:0]
	for k.col.nPaths < chk.Paths {
		ok, err := k.recovered.Next(&k.seg)
		if err != nil {
			return fmt.Errorf("comap: replaying recovered spill log: %w", err)
		}
		if !ok {
			return fmt.Errorf("comap: recovered spill log ends at %d paths, checkpoint %d expects %d", k.col.nPaths, k.flushes, chk.Paths)
		}
		for i := 0; i < k.seg.NumTraces(); i++ {
			tv := k.seg.View(i)
			k.keep(k.seg.Stage, &tv)
			for j := 0; j < tv.NumHops(); j++ {
				if tv.HopResponded(j) {
					h := tv.Hop(j)
					k.c.Net.WarmReply(h.Addr, h.TTL == 1, h.Type == netsim.TTLExceeded)
				}
			}
		}
	}
	// Checkpoints seal their window first, so a window overshooting the
	// checkpoint means the log and the regeneration disagree.
	if k.col.nPaths != chk.Paths {
		panic(fmt.Errorf("comap: recovered log holds %d paths at checkpoint %d, which expects %d: regeneration diverged", k.col.nPaths, k.flushes, chk.Paths))
	}
	k.col.probeLedger = cur.probeLedger
	k.breaker.Restore(cur.Breaker)
	k.c.Clock.AdvanceTo(time.Unix(0, cur.ClockNS))
	k.last = cur
	k.flushes++
	if k.flushes == len(k.checkpoints) {
		// Every later flush probes live and appends to the log.
		k.closeRecovered()
	}
	return nil
}

// checkpoint appends a checkpoint record carrying the collection
// cursor: the boundary every crash until the next record rolls back
// to. A live flush records the cursor it just reached (Checkpoint
// seals the open window first; window layout never enters the
// digests). The complete record repeats the last flush's cursor,
// restored or live, and marks the log finished.
func (k *collector) checkpoint(complete bool) error {
	if !complete {
		k.last = resumeCursor{
			Stage:       k.stage,
			Flush:       k.flushes,
			Submitted:   k.submitted,
			ClockNS:     k.c.Clock.Now().UnixNano(),
			probeLedger: k.col.probeLedger,
			Paths:       k.col.nPaths,
			Breaker:     k.breaker.State(),
		}
	}
	buf, err := json.Marshal(k.last)
	if err != nil {
		return fmt.Errorf("comap: encoding resume cursor: %w", err)
	}
	if complete {
		err = k.writer.MarkComplete(k.col.nPaths, buf)
	} else {
		err = k.writer.Checkpoint(k.col.nPaths, buf)
	}
	if err != nil {
		return fmt.Errorf("comap: writing checkpoint record: %w", err)
	}
	return nil
}

// finish ends collection: the archive is complete, so the spill log is
// closed before the first replaying pass — after the complete record,
// in a durable campaign, so a crash from here on resumes as a pure
// replay. A cancel landing now still stops the campaign before the
// post-collection passes. The dedup set, the campaign's largest
// collection-only structure, is dropped here: RunContext keeps the
// collector live through those passes.
func (k *collector) finish() error {
	k.seen, k.seenWide, k.jobs = nil, nil, nil
	k.closeRecovered()
	if k.writer != nil {
		if k.c.Durable {
			if err := k.checkpoint(true); err != nil {
				return err
			}
		}
		err := k.writer.Close()
		k.writer = nil
		if err != nil {
			return fmt.Errorf("comap: closing spill log: %w", err)
		}
	}
	return k.ctx.Err()
}

// release frees what an unfinished collection holds, including a
// non-durable campaign's spill files (nothing can use them); a durable
// log stays for the next run to resume. Close errors are dropped: the
// campaign already failed with the error that matters.
func (k *collector) release() {
	k.closeRecovered()
	if k.writer != nil {
		k.writer.Close()
		k.writer = nil
	}
	if !k.c.Durable {
		k.col.Close()
	}
}

// closeRecovered releases the recovered log's reader; idempotent.
func (k *collector) closeRecovered() {
	if k.recovered != nil {
		k.recovered.Close()
		k.recovered = nil
	}
}
