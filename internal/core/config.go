package core

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/segfault"
	"repro/internal/topogen"
)

// Config carries the study knobs shared by every case study. Studies
// are built with functional options, so zero-configuration calls keep
// their historical behavior:
//
//	st := core.NewCableStudy(7)                             // as before
//	st := core.NewCableStudy(7, core.WithParallelism(8))    // 8 probe workers
//	st := core.NewCableStudy(7, core.WithProbeBudget(5000)) // capped campaign
type Config struct {
	// Parallelism is the probe-scheduler worker count handed to every
	// campaign the study runs (0 selects GOMAXPROCS). Results are
	// byte-identical at any value — see internal/probesched.
	Parallelism int
	// ProbeBudget caps the total traceroutes a campaign may submit
	// (0 = unlimited). Only the cable campaign currently enforces it.
	ProbeBudget int
	// Faults, when non-nil, is installed on the scenario network after
	// it is built: every campaign the study runs measures through the
	// faulted plane. nil (the default) leaves the network pristine.
	Faults *netsim.FaultPlan
	// Resilience configures the campaigns' retry/budget/breaker policy;
	// the zero value keeps historical behavior exactly.
	Resilience probesched.Resilience
	// Scale enlarges the generated topology (region replication,
	// subscriber floor) before the campaigns run; the zero value keeps
	// the paper-size footprint exactly (see topogen.Scale).
	Scale topogen.Scale
	// TraceWindow streams campaigns through the windowed engine: kept
	// traces spill to disk in windows of this many traces and inference
	// replays them window-at-a-time, keeping path memory O(window)
	// instead of O(campaign). Zero (the default) keeps the resident
	// archive. Fault-free results are bit-identical at any value.
	TraceWindow int
	// SpillDir hosts the windowed engine's segment log; empty creates a
	// .spill-* directory under the working directory, cleaned up when
	// the result is closed.
	SpillDir string
	// Durable makes windowed campaigns crash-safe: sealed windows are
	// fsynced, cursors checkpoint into the same log at every flush
	// boundary, and a study restarted over the same SpillDir resumes —
	// bit-identical to an uninterrupted run. Each campaign keeps one
	// file, its log. Requires TraceWindow and an explicit SpillDir.
	Durable bool
	// SpillFS is the filesystem seam durable spill I/O goes through;
	// nil selects the real OS. Crash tests inject fault plans here.
	SpillFS segfault.FS
}

// Option mutates a study Config; pass options to the New*Study
// constructors.
type Option func(*Config)

// WithParallelism sets the probe-scheduler worker count for every
// campaign the study runs. Output is identical at any value; higher
// counts only shorten wall-clock time on multi-core hosts.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithProbeBudget caps the total traceroutes a campaign may submit.
func WithProbeBudget(n int) Option {
	return func(c *Config) { c.ProbeBudget = n }
}

// WithFaults installs a fault plan on the study's network: link loss,
// ICMP rate limiting, blackouts, silent routers, and VP churn, all
// derived deterministically from the plan seed (see netsim.FaultPlan).
func WithFaults(p netsim.FaultPlan) Option {
	return func(c *Config) { c.Faults = &p }
}

// WithResilience opts the study's campaigns into retries with backoff,
// per-trace probe budgets, and the per-VP circuit breaker.
func WithResilience(r probesched.Resilience) Option {
	return func(c *Config) { c.Resilience = r }
}

// WithScale enlarges the study's generated topology: sc.Regions
// replicates every region that many times and sc.Subscribers floors the
// allocated subscriber address count per operator. The zero Scale is a
// no-op, so existing callers keep paper-size topologies and their
// pinned digests.
func WithScale(sc topogen.Scale) Option {
	return func(c *Config) { c.Scale = sc }
}

// WithTraceWindow bounds campaign memory: traces spill to disk in
// windows of n traces and inference replays them window-at-a-time. Zero
// keeps the resident archive. Fault-free campaign output is
// bit-identical at any window size; memory falls from O(campaign) to
// O(window).
func WithTraceWindow(n int) Option {
	return func(c *Config) { c.TraceWindow = n }
}

// WithSpillDir places the windowed engine's segment log in dir instead
// of a fresh .spill-* temp directory. The directory must exist; only
// the log file is removed on close.
func WithSpillDir(dir string) Option {
	return func(c *Config) { c.SpillDir = dir }
}

// WithDurable opts windowed campaigns into crash-safe spill: fsynced
// window logs with a checkpoint record at every flush boundary, resumed
// automatically (and bit-identically) by the next run over the same
// SpillDir. Use with WithTraceWindow and WithSpillDir.
func WithDurable() Option {
	return func(c *Config) { c.Durable = true }
}

// WithSpillFS routes durable spill I/O through an injected filesystem
// (crash tests use internal/segfault plans); nil keeps the real OS.
func WithSpillFS(fsys segfault.FS) Option {
	return func(c *Config) { c.SpillFS = fsys }
}

// buildConfig applies opts and returns the config with its validate
// verdict.
func buildConfig(opts []Option) (Config, error) {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c, c.validate()
}

// Option combinations the studies reject. NewStudy returns the error
// before building anything; a study built directly keeps it, and its
// Run and Result methods return (or panic with) it before starting a
// campaign. Each wraps ErrInvalidConfig, so callers can tell a usage
// error from a failed run with one errors.Is.
var (
	ErrInvalidConfig        = errors.New("core: invalid study config")
	ErrNegativeTraceWindow  = fmt.Errorf("%w: trace window must not be negative", ErrInvalidConfig)
	ErrSpillDirNeedsWindow  = fmt.Errorf("%w: a spill dir requires a trace window", ErrInvalidConfig)
	ErrDurableNeedsWindow   = fmt.Errorf("%w: durable spill requires a trace window", ErrInvalidConfig)
	ErrDurableNeedsSpillDir = fmt.Errorf("%w: durable spill requires an explicit spill dir", ErrInvalidConfig)
	ErrSpillDirMissing      = fmt.Errorf("%w: spill dir does not exist or is not a directory", ErrInvalidConfig)
	ErrFaultRate            = fmt.Errorf("%w: link loss must lie in [0,1] and the ICMP rate must not be negative", ErrInvalidConfig)
)

// validate rejects option combinations that would otherwise be silently
// dropped (a spill dir or durability without windowing), crash deep in
// a campaign (durability without a spill dir, a spill dir that is not
// a directory), or feed the fault plane meaningless rates.
func (c Config) validate() error {
	switch {
	case c.TraceWindow < 0:
		return ErrNegativeTraceWindow
	case c.Durable && c.TraceWindow == 0:
		return ErrDurableNeedsWindow
	case c.Durable && c.SpillDir == "":
		return ErrDurableNeedsSpillDir
	case c.SpillDir != "" && c.TraceWindow == 0:
		return ErrSpillDirNeedsWindow
	case c.SpillDir != "" && !isDir(c.SpillDir):
		return fmt.Errorf("%w: %s", ErrSpillDirMissing, c.SpillDir)
	case c.Faults != nil && (c.Faults.LinkLoss < 0 || c.Faults.LinkLoss > 1 || c.Faults.ICMPRate < 0):
		return ErrFaultRate
	}
	return nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// installFaults applies the WithFaults plan (if any) to a freshly-built
// scenario network; study constructors call it once, after topology
// generation, so the fault hashes see the final network seed.
func (c Config) installFaults(n *netsim.Network) {
	if c.Faults != nil {
		n.SetFaultPlan(*c.Faults)
	}
}
