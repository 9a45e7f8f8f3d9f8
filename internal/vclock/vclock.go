// Package vclock provides the virtual clock that measurement campaigns
// run on. Probes take (virtual) time proportional to their RTTs and
// timeouts, IP-ID counters advance with it, and multi-day campaigns such
// as ShipTraceroute complete instantly in wall-clock terms while keeping
// realistic timing relationships.
//
// Clocks are safe for concurrent use. The parallel probe scheduler
// (internal/probesched) keeps one clock per worker, Resets it to the
// batch start before each job, and re-merges the elapsed virtual time
// in canonical job order, so concurrent probes observe consistent
// virtual time regardless of how the runtime interleaves them.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero Clock is
// not usable; construct with New.
//
// The representation is a fixed base instant plus an atomic nanosecond
// offset: reading and advancing are single atomic operations, which
// matters because probe loops consult the clock once or twice per
// probe. Wall-clock arithmetic on time.Time is exact integer
// nanoseconds, so base.Add(sum of advances) reads identically to the
// equivalent sequence of cumulative Adds.
type Clock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds since base
}

// New returns a clock starting at the given instant.
func New(start time.Time) *Clock {
	return &Clock{base: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	return c.base.Add(time.Duration(c.off.Load()))
}

// Advance moves the clock forward by d (negative values are ignored so a
// buggy caller cannot move time backwards).
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.off.Add(int64(d))
	}
}

// AdvanceTo jumps to a later instant; earlier instants are ignored.
func (c *Clock) AdvanceTo(t time.Time) {
	target := int64(t.Sub(c.base))
	for {
		cur := c.off.Load()
		if target <= cur {
			return
		}
		if c.off.CompareAndSwap(cur, target) {
			return
		}
	}
}

// Reset rewinds the clock to t unconditionally — the one operation
// allowed to move time backwards. It exists for clock reuse: the probe
// scheduler keeps one clock per worker and resets it between jobs
// instead of allocating a fresh fork per job.
func (c *Clock) Reset(t time.Time) {
	c.off.Store(int64(t.Sub(c.base)))
}

// Since reports the elapsed virtual time from t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}
