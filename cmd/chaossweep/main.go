// Command chaossweep measures how gracefully the inference pipeline
// degrades under an injected-fault measurement plane. It sweeps a grid
// of link-loss rates (optionally with ICMP rate limiting layered on),
// reruns the full cable campaign at each cell with the resilient
// probing policy, scores the inferred maps against ground truth, and
// prints one row per cell: probe-outcome accounting, hop yield, and
// CO/edge recovery quality. The point of the table is the shape of the
// curve — recall should slide, not fall off a cliff, as the plane gets
// worse.
//
// Usage:
//
//	chaossweep [-seed N] [-isp comcast|charter] [-grid 0,0.05,0.1,0.2]
//	           [-icmp-rate N] [-retries N] [-check]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
//	chaossweep -kill-after N [-isp comcast|charter] [-window W]
//
// Every cell rebuilds the same seeded scenario, so cells differ only in
// the installed fault plan; output is byte-identical at any -parallel
// value. With -check the sweep exits nonzero unless degradation is
// graceful (see the check in main).
//
// With -kill-after N the sweep becomes the crash-safety smoke instead:
// it runs the durable windowed campaign uninterrupted for a baseline
// digest, re-runs it with an injected crash at the Nth spill-log fsync
// (the process dies mid-campaign, mid-fsync), resumes a fresh study
// over the surviving spill directory, and exits nonzero unless the
// resumed digest matches the baseline bit for bit.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/segfault"
	"repro/internal/traceroute"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 7)
	isp := flag.String("isp", "comcast", "operator to score: comcast or charter")
	grid := flag.String("grid", "0,0.02,0.05,0.1,0.2", "comma-separated per-link loss rates to sweep (loss compounds per link traversal, so deep hops see far higher probe loss)")
	cfg.BindICMPRate(flag.CommandLine, "per-router ICMP replies/sec cap applied at every nonzero-loss cell (0 = no rate limiting)")
	cfg.BindRetries(flag.CommandLine, 3, "per-hop attempts for the resilient cells (0 = engine default, no resilience)")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "virtual backoff added per retry")
	breaker := flag.Int("breaker", 10, "circuit-breaker threshold (zero-yield traces before a VP is benched; 0 = off)")
	cfg.BindParallel(flag.CommandLine)
	cfg.BindScale(flag.CommandLine)
	cfg.BindWindow(flag.CommandLine)
	check := flag.Bool("check", false, "exit nonzero unless degradation is graceful")
	killAfter := flag.Int("kill-after", 0, "crash-safety smoke: crash the durable campaign at this spill-log fsync, resume, and require a bit-identical result (skips the loss sweep)")
	cfg.BindProfiles(flag.CommandLine, "write a CPU profile of the sweep to this file")
	flag.Parse()

	if *isp != "comcast" && *isp != "charter" {
		fmt.Fprintln(os.Stderr, "chaossweep: -isp must be comcast or charter")
		os.Exit(2)
	}
	if *killAfter > 0 {
		os.Exit(runKillResume(cfg, *isp, *killAfter))
	}
	if cfg.Durable {
		fmt.Fprintln(os.Stderr, "chaossweep: -durable applies only to the -kill-after smoke")
		os.Exit(2)
	}
	losses, err := parseGrid(*grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaossweep:", err)
		os.Exit(2)
	}
	defer cfg.StartProfiling()()

	type row struct {
		loss     float64
		stats    probesched.ProbeStats
		hopYield float64
		cos      int
		recall   float64
		f1       float64
		conf     float64
	}
	var rows []row
	fmt.Printf("%-6s %8s %8s %8s %8s %7s %6s %8s %8s %6s\n",
		"loss", "sent", "lost", "ratelim", "retries", "yield", "COs", "CO-rec", "CO-F1", "conf")
	for _, loss := range losses {
		// Cells assemble options by hand rather than through cfg.Options:
		// the loss rate varies per cell and the resilience policy carries
		// the sweep's -backoff/-breaker knobs.
		opts := []core.Option{core.WithParallelism(cfg.Parallel)}
		if loss > 0 || cfg.ICMPRate > 0 {
			plan := netsim.FaultPlan{Seed: uint64(cfg.Seed), LinkLoss: loss}
			if loss > 0 {
				// Rate limiting only joins nonzero-loss cells so the
				// loss=0 column stays the pristine baseline.
				plan.ICMPRate = cfg.ICMPRate
			}
			opts = append(opts, core.WithFaults(plan))
		}
		if cfg.Retries > 0 {
			opts = append(opts, core.WithResilience(probesched.Resilience{
				Attempts:         cfg.Retries,
				RetryBackoff:     *backoff,
				BreakerThreshold: *breaker,
			}))
		}
		if cfg.Scaled() {
			opts = append(opts, core.WithScale(cfg.ScaleValue()))
		}
		if cfg.TraceWindow != 0 {
			opts = append(opts, core.WithTraceWindow(cfg.TraceWindow))
		}
		if cfg.SpillDir != "" {
			opts = append(opts, core.WithSpillDir(cfg.SpillDir))
		}
		stAny, err := core.NewStudy("cable", cfg.Seed, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaossweep:", err)
			os.Exit(2)
		}
		st := stAny.(*core.CableStudy)
		res := st.Result(*isp)
		cov := res.Coverage
		if !cov.Probes.Consistent() {
			fmt.Fprintf(os.Stderr, "chaossweep: loss=%.2f: probe ledger inconsistent: %+v\n",
				loss, cov.Probes)
			os.Exit(1)
		}
		score := st.Score(*isp)
		st.Close() // release the cell's spill files before the next cell
		r := row{
			loss:     loss,
			stats:    cov.Probes,
			hopYield: cov.HopYield(),
			recall:   meanCORecall(score),
			f1:       score.MeanF1(),
		}
		var confSum float64
		for _, rc := range cov.Regions {
			r.cos += rc.COs
			confSum += rc.MeanConfidence
		}
		if len(cov.Regions) > 0 {
			r.conf = confSum / float64(len(cov.Regions))
		}
		rows = append(rows, r)
		fmt.Printf("%-6.2f %8d %8d %8d %8d %6.1f%% %6d %8.3f %8.3f %6.2f\n",
			r.loss, r.stats.Sent, r.stats.Lost, r.stats.RateLimited, r.stats.Retries,
			100*r.hopYield, r.cos, r.recall, r.f1, r.conf)
	}

	if !*check {
		return
	}
	// Graceful-degradation check: the pristine cell must score best (or
	// tie within noise), and no moderate-loss cell may collapse below
	// half the pristine recall — that would be a cliff, not a slide.
	// "Moderate" is per-link loss <= 10%: loss compounds per traversal
	// (a probe to hop h crosses 2(h+1) links), so 10% per link already
	// means ~85% probe loss at hop 7; beyond that the plane is dark and
	// collapse is physics, not fragility.
	base := rows[0].recall
	if base == 0 {
		fmt.Fprintln(os.Stderr, "chaossweep: pristine recall is zero; nothing to degrade from")
		os.Exit(1)
	}
	const noise = 0.02
	for _, r := range rows[1:] {
		if r.recall > base+noise {
			fmt.Fprintf(os.Stderr, "chaossweep: loss=%.2f recall %.3f exceeds pristine %.3f beyond noise\n",
				r.loss, r.recall, base)
			os.Exit(1)
		}
		if r.loss <= 0.10 && r.recall < base/2 {
			fmt.Fprintf(os.Stderr, "chaossweep: cliff at loss=%.2f: recall %.3f < half of pristine %.3f\n",
				r.loss, r.recall, base)
			os.Exit(1)
		}
	}
	fmt.Println("degradation: graceful")
}

// runKillResume is the -kill-after mode: baseline, injected crash,
// resume, digest compare. The resumed study is built from scratch —
// cold simulator counters, fresh virtual clock — so only the spill
// directory's log and checkpoints carry the crashed run's state, and a
// digest match certifies the checkpoint/resume path end to end.
func runKillResume(cfg cli.Config, isp string, killAfter int) int {
	window := cfg.TraceWindow
	if window == 0 {
		window = 64 // durable spill requires windowed collection
	}
	opts := func(dir string, fsys segfault.FS) []core.Option {
		o := []core.Option{
			core.WithParallelism(cfg.Parallel),
			core.WithTraceWindow(window),
			core.WithSpillDir(dir),
			core.WithDurable(),
		}
		if fsys != nil {
			o = append(o, core.WithSpillFS(fsys))
		}
		if cfg.Scaled() {
			o = append(o, core.WithScale(cfg.ScaleValue()))
		}
		return o
	}
	// digest runs the durable study over dir and hashes everything the
	// pipeline produced: the full region-graph report plus the probe
	// ledger (the ledger catches a resume that rebuilt the right map
	// from the wrong amount of work).
	digest := func(dir string, fsys segfault.FS) (string, *traceroute.Resume, error) {
		stAny, err := core.NewStudy("cable", cfg.Seed, opts(dir, fsys)...)
		if err != nil {
			return "", nil, err
		}
		st := stAny.(*core.CableStudy)
		res, err := st.ResultContext(context.Background(), isp)
		if err != nil {
			return "", nil, err
		}
		var b strings.Builder
		if err := res.WriteJSON(&b, isp); err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&b, "probes %+v\n", res.Coverage.Probes)
		sum := sha256.Sum256([]byte(b.String()))
		resumed := res.Collection.Resumed
		if err := st.Close(); err != nil {
			return "", nil, err
		}
		return hex.EncodeToString(sum[:]), resumed, nil
	}
	// crash runs the campaign expecting the injected plan to kill it;
	// anything other than a segfault.ErrCrash unwind is a real failure.
	crash := func(dir string, fsys segfault.FS) (err error) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if e, ok := r.(error); ok && errors.Is(e, segfault.ErrCrash) {
				err = nil
				return
			}
			panic(r)
		}()
		stAny, err := core.NewStudy("cable", cfg.Seed, opts(dir, fsys)...)
		if err != nil {
			return err
		}
		if _, err := stAny.(*core.CableStudy).ResultContext(context.Background(), isp); err != nil {
			return err
		}
		return fmt.Errorf("campaign survived -kill-after %d (too few spill fsyncs at window %d?)", killAfter, window)
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "chaossweep:", err)
		if errors.Is(err, core.ErrInvalidConfig) {
			return 2
		}
		return 1
	}
	mkdir := func(label string) (string, error) {
		return os.MkdirTemp(".", ".crash-"+label+"-")
	}

	baseDir, err := mkdir("baseline")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(baseDir)
	baseline, _, err := digest(baseDir, nil)
	if err != nil {
		return fail(fmt.Errorf("baseline run: %w", err))
	}
	fmt.Printf("baseline  %s  (isp=%s window=%d)\n", baseline, isp, window)

	killDir, err := mkdir("kill")
	if err != nil {
		return fail(err)
	}
	inj := segfault.Inject(segfault.OS, segfault.Plan{
		Seed:           uint64(cfg.Seed),
		CrashOnLogSync: killAfter,
	})
	if err := crash(killDir, inj); err != nil {
		return fail(fmt.Errorf("crash run: %w", err))
	}
	fmt.Printf("killed    campaign at spill-log fsync #%d\n", killAfter)

	resumed, rec, err := digest(killDir, nil)
	if err != nil {
		return fail(fmt.Errorf("resumed run: %w", err))
	}
	how := "restarted fresh"
	if rec != nil && rec.Resumed {
		how = "resumed from checkpoint"
	}
	fmt.Printf("resumed   %s  (%s)\n", resumed, how)

	if resumed != baseline {
		fmt.Fprintf(os.Stderr, "chaossweep: resumed digest differs from baseline — crash recovery is not bit-identical\n")
		return 1
	}
	os.RemoveAll(killDir)
	fmt.Println("crash recovery: bit-identical")
	return 0
}

// meanCORecall averages per-region CO recall.
func meanCORecall(s metrics.ISPScore) float64 {
	if len(s.Regions) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s.Regions {
		sum += r.COs.Recall
	}
	return sum / float64(len(s.Regions))
}

func parseGrid(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad -grid entry %q (want rates in [0,1))", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-grid is empty")
	}
	return out, nil
}
