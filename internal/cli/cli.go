// Package cli is the shared flag surface of the study cmds. Every cmd
// used to re-declare the same knobs — -seed, -parallel, -budget, -loss,
// -icmp-rate, -retries, -cpuprofile, -memprofile — with copy-pasted
// usage strings and copy-pasted wiring into core options; regiond would
// have been the seventh copy. Config centralizes the declarations (each
// Bind* method registers one knob, with the historical wording as the
// default usage and an override for cmds that documented it
// differently) and the one Config → core.Option bridge, so a flag's
// semantics can only be changed in one place.
package cli

import (
	"flag"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/profiling"
	"repro/internal/topogen"
)

// Canonical usage strings — the exact historical wording of the flags
// as regionmap declared them. Cmds that shipped a different wording
// pass it as the override so their -h output stays byte-identical.
const (
	SeedUsage     = "scenario seed (same seed, same maps)"
	ParallelUsage = "probe-scheduler workers (0 = GOMAXPROCS); output is identical at any value"
	BudgetUsage   = "cap total campaign traceroutes (0 = unlimited)"
	LossUsage     = "inject per-link loss at this rate (0 = pristine plane)"
	ICMPRateUsage = "cap per-router ICMP replies/sec (0 = no rate limiting)"
	RetriesUsage  = "per-hop attempts with backoff for the resilient campaign (0 = historical behavior)"
	CPUProfUsage  = "write a CPU profile of the run to this file"
	MemProfUsage  = "write a heap profile to this file at exit"
	RegionsUsage  = "replicate every generated region this many times (1 = paper-size topology)"
	SubsUsage     = "floor on allocated subscriber addresses per operator (0 = paper-size default)"
	WindowUsage   = "stream campaigns through trace windows of this size, spilling to disk (0 = resident archive); fault-free output is identical at any value"
	SpillUsage    = "directory for the windowed engine's spill log (default: a fresh .spill-* temp dir)"
	DurableUsage  = "crash-safe spill: fsync sealed windows, checkpoint every flush, resume interrupted campaigns from -spill-dir bit-identically (requires -trace-window and -spill-dir)"
)

// Config carries the parsed values of the shared study knobs. Bind only
// what the cmd supports; unbound fields stay zero, which every consumer
// treats as "off".
type Config struct {
	Seed        int64
	Parallel    int
	Budget      int
	Loss        float64
	ICMPRate    float64
	Retries     int
	Regions     int
	Subscribers int
	TraceWindow int
	SpillDir    string
	Durable     bool
	CPUProfile  string
	MemProfile  string
}

func usageOr(canonical string, override []string) string {
	if len(override) > 0 {
		return override[0]
	}
	return canonical
}

// BindSeed registers -seed with the cmd's default.
func (c *Config) BindSeed(fs *flag.FlagSet, def int64, usage ...string) {
	fs.Int64Var(&c.Seed, "seed", def, usageOr(SeedUsage, usage))
}

// BindParallel registers -parallel.
func (c *Config) BindParallel(fs *flag.FlagSet) {
	fs.IntVar(&c.Parallel, "parallel", 0, ParallelUsage)
}

// BindBudget registers -budget.
func (c *Config) BindBudget(fs *flag.FlagSet) {
	fs.IntVar(&c.Budget, "budget", 0, BudgetUsage)
}

// BindLoss registers -loss.
func (c *Config) BindLoss(fs *flag.FlagSet, usage ...string) {
	fs.Float64Var(&c.Loss, "loss", 0, usageOr(LossUsage, usage))
}

// BindICMPRate registers -icmp-rate.
func (c *Config) BindICMPRate(fs *flag.FlagSet, usage ...string) {
	fs.Float64Var(&c.ICMPRate, "icmp-rate", 0, usageOr(ICMPRateUsage, usage))
}

// BindRetries registers -retries with the cmd's default.
func (c *Config) BindRetries(fs *flag.FlagSet, def int, usage ...string) {
	fs.IntVar(&c.Retries, "retries", def, usageOr(RetriesUsage, usage))
}

// BindScale registers -regions and -subscribers, the topology scale
// knobs. The defaults (1 region copy, no subscriber floor) keep the
// paper-size topology and its pinned digests.
func (c *Config) BindScale(fs *flag.FlagSet) {
	fs.IntVar(&c.Regions, "regions", 1, RegionsUsage)
	fs.IntVar(&c.Subscribers, "subscribers", 0, SubsUsage)
}

// BindWindow registers -trace-window, -spill-dir, and -durable, the
// streaming campaign engine knobs. The defaults keep the resident
// archive.
func (c *Config) BindWindow(fs *flag.FlagSet) {
	fs.IntVar(&c.TraceWindow, "trace-window", 0, WindowUsage)
	fs.StringVar(&c.SpillDir, "spill-dir", "", SpillUsage)
	fs.BoolVar(&c.Durable, "durable", false, DurableUsage)
}

// BindProfiles registers -cpuprofile and -memprofile.
func (c *Config) BindProfiles(fs *flag.FlagSet, cpuUsage ...string) {
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", usageOr(CPUProfUsage, cpuUsage))
	fs.StringVar(&c.MemProfile, "memprofile", "", MemProfUsage)
}

// Options is the Config → core.Option bridge, reproducing the wiring
// every cmd previously hand-rolled: parallelism and probe budget
// always; a fault plan (seeded by the scenario seed) only when -loss or
// -icmp-rate is set; the resilient-probing policy (200ms backoff,
// breaker threshold 10) only when -retries is set; each windowing knob
// whenever it is set. extra options append after the shared ones.
// Out-of-range or contradictory values are forwarded as given, so
// core.NewStudy rejects them instead of the bridge dropping them.
func (c *Config) Options(extra ...core.Option) []core.Option {
	opts := []core.Option{core.WithParallelism(c.Parallel), core.WithProbeBudget(c.Budget)}
	if c.Loss != 0 || c.ICMPRate != 0 {
		opts = append(opts, core.WithFaults(netsim.FaultPlan{
			Seed: uint64(c.Seed), LinkLoss: c.Loss, ICMPRate: c.ICMPRate,
		}))
	}
	if c.Retries > 0 {
		opts = append(opts, core.WithResilience(probesched.Resilience{
			Attempts:         c.Retries,
			RetryBackoff:     200 * time.Millisecond,
			BreakerThreshold: 10,
		}))
	}
	if c.Scaled() {
		opts = append(opts, core.WithScale(c.ScaleValue()))
	}
	if c.TraceWindow != 0 {
		opts = append(opts, core.WithTraceWindow(c.TraceWindow))
	}
	if c.SpillDir != "" {
		opts = append(opts, core.WithSpillDir(c.SpillDir))
	}
	if c.Durable {
		opts = append(opts, core.WithDurable())
	}
	return append(opts, extra...)
}

// ScaleValue returns the topology scale the flags request; zero when
// the scale knobs are unbound or left at their defaults.
func (c *Config) ScaleValue() topogen.Scale {
	return topogen.Scale{Regions: c.Regions, Subscribers: c.Subscribers}
}

// Scaled reports whether the run asks for a larger-than-paper topology.
func (c *Config) Scaled() bool {
	return !c.ScaleValue().IsZero()
}

// Faulted reports whether any degraded-plane knob is set — the cmds
// print the coverage report exactly then.
func (c *Config) Faulted() bool {
	return c.Loss > 0 || c.ICMPRate > 0 || c.Retries > 0
}

// StartProfiling begins CPU/heap profiling per the flags; defer the
// returned stop function.
func (c *Config) StartProfiling() func() {
	return profiling.Start(c.CPUProfile, c.MemProfile)
}
