// Checkpoint/resume for durable campaigns. A durable campaign appends
// a checkpoint record carrying its cursor to its spill log at every
// flush boundary (collector.checkpoint); after a crash or a
// cancellation, the campaign re-runs its deterministic job generator
// from the top, and every flush whose checkpoint survived is *skipped*
// instead of probed (collector.restore) — the trace bytes are already
// durable, so the flush restores the cursor (clock, ledger, breaker)
// and streams the corresponding log windows through the simulator's
// IP-ID warm-up (netsim.WarmReply) so subsequent live probes observe
// exactly the counter state the stopped process left behind. The first
// flush with no surviving checkpoint probes live, and everything
// downstream is bit-identical to an uninterrupted run: the resume grid
// in internal/probesched pins the recovered digests against the golden
// constants. Reading the recovered log can fail like any I/O and
// returns an error; a log that disagrees with the schedule the
// generator reproduces is a programming error and panics.
package comap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/probesched"
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
// into a checkpoint record at every flush boundary: everything
// collection mutates that cannot be reconstructed from the spill log
// alone. Trace bytes and observed hops replay from the log; the virtual
// clock, the probe ledger (dropped traces leave no log entry), and the
// breaker restore from here. collector.checkpoint is its one encoder,
// collector.restore its one decoder.
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
	// The probe ledger, copied in and out whole.
	probeLedger
	// Paths is the durable path count, cross-checked against the
	// checkpoint record's own count.
	Paths int `json:"paths"`
	// Breaker snapshots the circuit breaker: empty traces bump its dead
	// counts but are never spilled, so it cannot be replayed.
	Breaker probesched.BreakerState `json:"breaker"`
}
