package cli_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/probesched"
)

func bindAll(cfg *cli.Config) *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg.BindSeed(fs, 7)
	cfg.BindParallel(fs)
	cfg.BindBudget(fs)
	cfg.BindLoss(fs)
	cfg.BindICMPRate(fs)
	cfg.BindRetries(fs, 0)
	cfg.BindProfiles(fs)
	return fs
}

// optionsConfig applies the bridged options to an empty core.Config the
// way the study constructors do.
func optionsConfig(opts []core.Option) (p, b int, faults *netsim.FaultPlan, r probesched.Resilience) {
	var c core.Config
	for _, o := range opts {
		o(&c)
	}
	return c.Parallelism, c.ProbeBudget, c.Faults, c.Resilience
}

// TestDefaultsMatchHistoricalWiring: with no flags set, the bridge must
// produce exactly the pre-extraction option list — parallelism and
// budget only, no fault plan, zero resilience.
func TestDefaultsMatchHistoricalWiring(t *testing.T) {
	var cfg cli.Config
	fs := bindAll(&cfg)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 {
		t.Errorf("Seed = %d, want default 7", cfg.Seed)
	}
	p, b, faults, r := optionsConfig(cfg.Options())
	if p != 0 || b != 0 {
		t.Errorf("parallelism/budget = %d/%d, want 0/0", p, b)
	}
	if faults != nil {
		t.Errorf("pristine flags installed a fault plan: %+v", faults)
	}
	if r != (probesched.Resilience{}) {
		t.Errorf("pristine flags installed resilience: %+v", r)
	}
	if cfg.Faulted() {
		t.Error("pristine flags report Faulted")
	}
}

// TestFaultAndResilienceBridge: the flag combinations regionmap shipped
// must bridge to the identical FaultPlan / Resilience values it built
// by hand.
func TestFaultAndResilienceBridge(t *testing.T) {
	var cfg cli.Config
	fs := bindAll(&cfg)
	args := []string{"-seed", "11", "-parallel", "4", "-budget", "500",
		"-loss", "0.05", "-icmp-rate", "2", "-retries", "3"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	p, b, faults, r := optionsConfig(cfg.Options())
	if p != 4 || b != 500 {
		t.Errorf("parallelism/budget = %d/%d, want 4/500", p, b)
	}
	want := netsim.FaultPlan{Seed: 11, LinkLoss: 0.05, ICMPRate: 2}
	if faults == nil || !reflect.DeepEqual(*faults, want) {
		t.Errorf("fault plan = %+v, want %+v", faults, want)
	}
	if r.Attempts != 3 || r.BreakerThreshold != 10 || r.RetryBackoff <= 0 {
		t.Errorf("resilience = %+v, want attempts=3 breaker=10 backoff>0", r)
	}
	if !cfg.Faulted() {
		t.Error("faulted flags do not report Faulted")
	}
}

// TestExtraOptionsAppend: cmd-specific options ride after the shared
// bridge so they can override it.
func TestExtraOptionsAppend(t *testing.T) {
	var cfg cli.Config
	fs := bindAll(&cfg)
	if err := fs.Parse([]string{"-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	p, _, _, _ := optionsConfig(cfg.Options(core.WithParallelism(9)))
	if p != 9 {
		t.Errorf("extra option did not override: parallelism = %d, want 9", p)
	}
}

// TestStudyRejectsDroppedOrContradictoryFlags: flag combinations the
// bridge used to drop silently (or that crashed deep in a campaign)
// must reach core.NewStudy and be rejected there, with a named error,
// before any topology is built.
func TestStudyRejectsDroppedOrContradictoryFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want error
	}{
		{"durable spill without window", []string{"-durable", "-spill-dir", "d"}, core.ErrDurableNeedsWindow},
		{"durable window without spill dir", []string{"-durable", "-trace-window", "64"}, core.ErrDurableNeedsSpillDir},
		{"spill dir without window", []string{"-spill-dir", "d"}, core.ErrSpillDirNeedsWindow},
		{"missing spill dir", []string{"-trace-window", "64", "-spill-dir", missing}, core.ErrSpillDirMissing},
		{"spill dir is a file", []string{"-trace-window", "64", "-spill-dir", file}, core.ErrSpillDirMissing},
		{"negative window", []string{"-trace-window", "-1"}, core.ErrNegativeTraceWindow},
		{"negative loss", []string{"-loss", "-0.1"}, core.ErrFaultRate},
		{"loss above one", []string{"-loss", "1.5"}, core.ErrFaultRate},
		{"negative icmp rate", []string{"-icmp-rate", "-2"}, core.ErrFaultRate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg cli.Config
			fs := bindAll(&cfg)
			cfg.BindWindow(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			st, err := core.NewStudy("cable", cfg.Seed, cfg.Options()...)
			if !errors.Is(err, tc.want) || !errors.Is(err, core.ErrInvalidConfig) {
				t.Fatalf("NewStudy error = %v, want %v", err, tc.want)
			}
			if st != nil {
				t.Fatal("NewStudy returned a study alongside its error")
			}
		})
	}
}

// TestStudyAcceptsKillResumeShape: the option set the chaossweep
// -kill-after smoke builds for -trace-window 16 (window, explicit spill
// dir, durable) is valid.
func TestStudyAcceptsKillResumeShape(t *testing.T) {
	st, err := core.NewStudy("cable", 7, core.WithTraceWindow(16),
		core.WithSpillDir(t.TempDir()), core.WithDurable())
	if err != nil {
		t.Fatalf("NewStudy rejected the kill-resume shape: %v", err)
	}
	st.(*core.CableStudy).Close()
}
