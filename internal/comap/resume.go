// Checkpoint/resume for durable campaigns. A durable campaign appends
// a checkpoint record carrying its cursor to its spill log at every
// flush boundary; after a crash, the campaign re-runs its deterministic
// job generator from the top, and every flush whose checkpoint survived
// is *skipped* instead of probed — the trace bytes are already durable,
// so the flush restores the cursor (clock, counters, breaker) and
// streams the corresponding log windows through the simulator's IP-ID
// warm-up (netsim.WarmReply) so subsequent live probes observe exactly
// the counter state the crashed process left behind. The first flush with
// no surviving checkpoint probes live, and everything downstream is
// bit-identical to an uninterrupted run: the resume grid in
// internal/probesched pins the recovered digests against the golden
// constants.
package comap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/probesched"
	"repro/internal/traceroute"
)

// fingerprint identifies the campaign configuration a durable spill
// log belongs to. Resume refuses a log whose fingerprint differs —
// replaying traces measured under a different seed, fault plan, or
// probe schedule would silently corrupt the collection. Parallelism is
// deliberately excluded: collections are worker-count invariant, so a
// campaign may resume at a different worker count.
func (c *Campaign) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "comap-campaign/v1\n")
	fmt.Fprintf(h, "isp=%s seed=%d window=%d budget=%d sweepvps=%d targetvps=%d\n",
		c.ISP, c.Seed, c.TraceWindow, c.MaxTraces, c.SweepVPs, c.TargetVPs)
	fmt.Fprintf(h, "skip=%t,%t,%t\n", c.SkipDirectTargeting, c.SkipMPLSPass, c.SkipAlias)
	fmt.Fprintf(h, "resilience=%+v\n", c.Resilience)
	fmt.Fprintf(h, "epoch=%d\n", c.Clock.Now().UnixNano())
	fmt.Fprintf(h, "faults=%+v\n", c.Net.Faults())
	for _, vp := range c.VPs {
		fmt.Fprintf(h, "vp=%s\n", vp)
	}
	for _, p := range c.Announced {
		fmt.Fprintf(h, "announced=%s\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// spillName is the campaign's segment-log file name. Per-ISP names let
// several campaigns share one caller-provided SpillDir without
// clobbering each other's durable state.
func (c *Campaign) spillName() string {
	if c.ISP == "" {
		return "traces.seg"
	}
	return "traces-" + c.ISP + ".seg"
}

// resumeCursor is the JSON checkpoint state a durable campaign writes
// into a checkpoint record at every flush boundary: everything the
// flush loop mutates that cannot be reconstructed from the spill log
// alone. Trace bytes and observed hops replay from the log; the virtual
// clock, the probe ledgers (dropped traces leave no log entry), and the
// breaker restore from here.
type resumeCursor struct {
	// Stage and Flush locate the checkpoint in the generator's
	// deterministic schedule: Flush is the 1-based count of completed
	// flushes. Resume regeneration asserts both — a mismatch means the
	// generator no longer reproduces the original schedule, and the
	// campaign must not trust the log.
	Stage string `json:"stage"`
	Flush int    `json:"flush"`
	// Submitted counts traceroute jobs handed to the scheduler (the
	// MaxTraces budget cursor).
	Submitted int `json:"submitted"`
	// ClockNS is the virtual clock reading after the flush, restored
	// via AdvanceTo so time-windowed faults replay identically.
	ClockNS int64 `json:"clock_ns"`
	// Whole-trace and hop-row ledgers (see Collection).
	TracesRun       int `json:"traces_run"`
	EmptyTraces     int `json:"empty_traces"`
	TruncatedTraces int `json:"truncated_traces"`
	HopRowsProbed   int `json:"hop_rows_probed"`
	HopRowsAnswered int `json:"hop_rows_answered"`
	// Stats is the campaign-wide probe-outcome ledger.
	Stats probesched.ProbeStats `json:"stats"`
	// Paths is the durable path count, cross-checked against the
	// checkpoint record's own count.
	Paths int `json:"paths"`
	// Breaker snapshots the circuit breaker: empty traces bump its dead
	// counts but are never spilled, so it cannot be replayed.
	Breaker probesched.BreakerState `json:"breaker"`
}

// logCursor streams the recovered prefix of a durable spill log in
// window order during resume regeneration. Skipped flushes consume it
// strictly forward (checkpoint path counts are ascending), so one pass
// with O(window) memory covers every skip.
type logCursor struct {
	path  string
	r     *traceroute.SegmentReader
	seg   traceroute.Segment
	paths int
}

// advanceTo decodes windows until exactly target paths have been
// visited. Checkpoints sit on window boundaries, so a window that
// would overshoot the target means the regeneration diverged from the
// log — a programming error, not an input condition; it panics.
func (lc *logCursor) advanceTo(target int, visit func(tv traceroute.TraceView, stage string)) {
	if lc.paths >= target {
		if lc.paths != target {
			panic(fmt.Errorf("comap: resume checkpoint at %d paths behind log cursor %d: regeneration diverged", target, lc.paths))
		}
		return
	}
	if lc.r == nil {
		r, err := traceroute.OpenSegmentLog(lc.path)
		if err != nil {
			panic(fmt.Errorf("comap: replaying recovered spill log: %w", err))
		}
		lc.r = r
	}
	for lc.paths < target {
		ok, err := lc.r.Next(&lc.seg)
		if err != nil {
			panic(fmt.Errorf("comap: replaying recovered spill log: %w", err))
		}
		if !ok {
			panic(fmt.Errorf("comap: recovered spill log ends at %d paths, checkpoint expects %d", lc.paths, target))
		}
		for i := 0; i < lc.seg.NumTraces(); i++ {
			visit(lc.seg.View(i), lc.seg.Stage)
			lc.paths++
		}
	}
	if lc.paths != target {
		panic(fmt.Errorf("comap: recovered spill window overshoots checkpoint (%d paths, expected %d): regeneration diverged", lc.paths, target))
	}
}

// close releases the cursor's reader; idempotent. The skip phase is a
// strict prefix of the flush schedule, so the first live flush closes
// the cursor before appending to the log.
func (lc *logCursor) close() {
	if lc.r != nil {
		lc.r.Close()
		lc.r = nil
	}
}

// resumeState is the regeneration context of a resumed campaign: the
// surviving checkpoints (consumed by flush ordinal) and the log cursor
// streaming the recovered windows.
type resumeState struct {
	checkpoints []traceroute.Checkpoint
	cursor      logCursor
}

// campaignCancelled carries a context-cancellation out of the flush
// loop; RunContext recovers it into an ordinary error return.
type campaignCancelled struct{ err error }
