// Command regiond is the resident topology service: it runs the named
// measurement study once at startup, compiles the inference into an
// immutable snapshot per operator (see internal/snapshot), and serves
// concurrent queries over HTTP — CO lookup by address (the snapshot's
// compiled prefix-set trie) or prefix (its sorted address index),
// region-graph extracts, coverage and confidence statistics, and the
// paper's Table 1 / Figure 7 series.
//
// Lookup, region and report answers are encoded once, when the snapshot
// is built, and each request copies those bytes into the response with
// an exact Content-Length; the bytes equal what json.Encoder with
// two-space indentation writes over the snapshot's struct API. Lookup
// queries are normalised first: a v4-mapped address or prefix is
// answered as its IPv4 form, a prefix is masked, and a zoned address,
// an unparsable value or an empty query is a 400.
//
// Refreshes re-run the full campaign in the background and install the
// new artifact with a single atomic pointer swap; queries in flight
// keep the snapshot they loaded and never see a torn artifact. The read
// path takes no locks (verified under -race by the snapshot swap test).
// The refresh loop is supervised: a panicking or failing refresh is
// recovered into a failure ledger, retried with exponential backoff,
// and reported as "degraded" by /v1/health while the daemon keeps
// serving the last good snapshot. SIGTERM/SIGINT drain the HTTP server
// gracefully and cancel any in-flight refresh at its next probe-batch
// boundary — a durable campaign checkpoints its spill so the next boot
// resumes it.
//
// Usage:
//
//	regiond [-listen ADDR] [-study cable] [-seed N] [-refresh DUR]
//	        [-loss RATE] [-icmp-rate N] [-retries N] [-budget N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 7)
	study := flag.String("study", "cable", "registered study to run and serve (see core.StudyNames)")
	listen := flag.String("listen", "127.0.0.1:8714", "HTTP listen address")
	refresh := flag.Duration("refresh", 0, "re-run the campaign and swap in a fresh snapshot at this interval (0 = serve the boot snapshot forever)")
	cfg.BindParallel(flag.CommandLine)
	cfg.BindBudget(flag.CommandLine)
	cfg.BindLoss(flag.CommandLine)
	cfg.BindICMPRate(flag.CommandLine)
	cfg.BindRetries(flag.CommandLine, 0)
	cfg.BindScale(flag.CommandLine)
	cfg.BindWindow(flag.CommandLine)
	cfg.BindProfiles(flag.CommandLine)
	flag.Parse()
	defer cfg.StartProfiling()()

	// SIGTERM/SIGINT cancel this context: the supervisor stops, an
	// in-flight refresh campaign exits at its next flush boundary (a
	// durable one checkpoints its spill for the next boot to resume),
	// and the HTTP server drains gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc := newService(*study, cfg.Seed, cfg.Options())
	fmt.Fprintf(os.Stderr, "regiond: running the %s study (seed %d)...\n", *study, cfg.Seed)
	start := time.Now()
	if err := svc.bootstrap(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "regiond:", err)
		if errors.Is(err, core.ErrInvalidConfig) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "regiond: snapshot v1 ready for %v in %v\n",
		svc.isps, time.Since(start).Round(time.Millisecond))

	if *refresh > 0 {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "regiond: "+format+"\n", args...)
		}
		svc.sup = newSupervisor(*refresh, func(ctx context.Context) error {
			if err := svc.refresh(ctx); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "regiond: refreshed to v%d\n", svc.stores[svc.isps[0]].Version())
			return nil
		}, logf)
		go svc.sup.run(ctx)
	}

	srv := &http.Server{Addr: *listen, Handler: svc.handler()}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "regiond: signal received, shutting down...")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "regiond: shutdown:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "regiond: listening on http://%s\n", *listen)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "regiond:", err)
		os.Exit(1)
	}
	<-shutdownDone
	fmt.Fprintln(os.Stderr, "regiond: bye")
}
