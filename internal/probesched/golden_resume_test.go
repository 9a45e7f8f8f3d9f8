package probesched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comap"
	"repro/internal/segfault"
	"repro/internal/traceroute"
)

// The crash-safe campaign's equivalence oracle: a durable campaign —
// uninterrupted, killed at an arbitrary point and resumed, or resumed
// from a complete log — must reproduce the same three pinned golden
// digests as the historical resident pipeline. The kill grid below
// crosses kill points (first window, mid-campaign, last window) with
// window sizes {16, 4096} and worker counts {1, 4}; every resumed run
// rebuilds the scenario from scratch (cold simulator counters, fresh
// virtual clock), so a digest match proves the checkpoint cursor and
// the log replay's IP-ID warm-up reconstruct the crashed process's
// state exactly.

// durableQuickstart is the quickstart campaign in durable windowed mode
// over dir, with spill I/O routed through fsys (nil = real OS).
func durableQuickstart(workers, window int, dir string, fsys segfault.FS) *comap.Campaign {
	c := quickstartCampaign(workers)
	c.TraceWindow = window
	c.SpillDir = dir
	c.Durable = true
	c.SpillFS = fsys
	return c
}

// runDurablePipeline runs the full pipeline and hashes it exactly as
// digestsOf does, additionally surfacing the campaign's resume record.
// closeRes=false leaves the durable spill on disk, simulating a process
// that completed its campaign but died before consuming it.
func runDurablePipeline(t *testing.T, c *comap.Campaign, closeRes bool) (campaign, aliasd, graph [32]byte, resumed *traceroute.Resume) {
	t.Helper()
	res := comap.Run(c)
	if closeRes {
		defer res.Close()
	}
	var report strings.Builder
	if err := res.WriteJSON(&report, "comcast"); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var b strings.Builder
	b.WriteString(serializeCollection(res.Collection))
	b.WriteString(report.String())
	fmt.Fprintf(&b, "clock %v\n", c.Clock.Now().UnixNano())
	campaign = sha256.Sum256([]byte(b.String()))
	aliasd = sha256.Sum256([]byte(serializeAliases(res.Collection)))
	graph = sha256.Sum256([]byte(report.String()))
	return campaign, aliasd, graph, res.Collection.Resumed
}

func checkGolden(t *testing.T, label string, campaign, aliasd, graph [32]byte) {
	t.Helper()
	if got := hex.EncodeToString(campaign[:]); got != goldenCampaignDigest {
		t.Errorf("%s: campaign digest %s differs from golden %s", label, got, goldenCampaignDigest)
	}
	if got := hex.EncodeToString(aliasd[:]); got != goldenAliasDigest {
		t.Errorf("%s: alias digest %s differs from golden %s", label, got, goldenAliasDigest)
	}
	if got := hex.EncodeToString(graph[:]); got != goldenRegionGraphDigest {
		t.Errorf("%s: region-graph digest %s differs from golden %s", label, got, goldenRegionGraphDigest)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// crashDurable runs the campaign expecting its injected crash plan to
// fire; the returned error must classify as segfault.ErrCrash.
func crashDurable(t *testing.T, c *comap.Campaign) {
	t.Helper()
	res, err := comap.RunContext(context.Background(), c)
	if err == nil {
		res.Close()
		t.Fatalf("campaign survived its crash plan")
	}
	if !errors.Is(err, segfault.ErrCrash) {
		t.Fatalf("campaign died with %v, want a segfault.ErrCrash", err)
	}
}

// TestDurableCampaignMatchesGoldenDigest pins that turning durability
// on — fsynced seals and checkpoint records — is digest-neutral:
// an uninterrupted durable run equals the resident goldens at every
// window size and worker count the windowed goldens cover.
func TestDurableCampaignMatchesGoldenDigest(t *testing.T) {
	for _, window := range []int{16, 4096} {
		for _, workers := range []int{1, 4} {
			c := durableQuickstart(workers, window, t.TempDir(), nil)
			campaign, aliasd, graph, resumed := runDurablePipeline(t, c, true)
			if resumed == nil || resumed.Resumed {
				t.Fatalf("window=%d workers=%d: fresh durable run reported resume %+v", window, workers, resumed)
			}
			checkGolden(t, fmt.Sprintf("durable window=%d workers=%d", window, workers),
				campaign, aliasd, graph)
		}
	}
}

// TestDurableKillAndResumeGrid is the crash-safety acceptance grid:
// kill a durable campaign at the first window seal, mid-campaign, the
// final window seal, and inside the last flush's checkpoint record —
// torn mid-write, or lost at its fsync (ordinals learned from an
// instrumented pass, so the grid tracks the real workload) — then
// resume over the surviving spill directory with a freshly built
// scenario and require bit-identical golden digests.
func TestDurableKillAndResumeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full kill/resume grid; skipped with -short")
	}
	for _, window := range []int{16, 4096} {
		// Instrumented pass: count the log syncs and writes one complete
		// collection performs at this window size (both are fold-side
		// and therefore worker-count invariant).
		meter := segfault.Inject(segfault.OS, segfault.Plan{})
		mc := durableQuickstart(4, window, t.TempDir(), meter)
		mcol := mc.Run()
		syncs, writes := meter.Counts()
		if err := mcol.Close(); err != nil {
			t.Fatalf("closing instrumented collection: %v", err)
		}
		if syncs < 3 {
			t.Fatalf("window=%d: instrumented run saw only %d log syncs", window, syncs)
		}

		// Log sync #1 is the header; #2 is the first window's seal. The
		// last flush seals its window and appends its checkpoint record,
		// then the complete record follows, so the final three syncs are
		// those frames'. Each record is a single write, so the record
		// before the complete one is the second-to-last write.
		kills := []struct {
			name string
			plan segfault.Plan
			// wantResumed, when true, requires recovery to find a usable
			// checkpoint (late kills always have one; the first-window
			// kill legitimately restarts fresh).
			wantResumed bool
		}{
			{"first-window", segfault.Plan{Seed: 101, CrashOnLogSync: 2}, false},
			{"mid-campaign", segfault.Plan{Seed: 102, CrashOnLogSync: 2 + (syncs-2)/2}, false},
			{"last-window", segfault.Plan{Seed: 103, CrashOnLogSync: syncs - 2}, true},
			{"torn-checkpoint-record", segfault.Plan{Seed: 104, CrashOnLogWrite: writes - 1}, true},
			{"checkpoint-record-fsync", segfault.Plan{Seed: 105, CrashOnLogSync: syncs - 1}, true},
		}
		for _, workers := range []int{1, 4} {
			anyResumed := false
			for _, kill := range kills {
				label := fmt.Sprintf("window=%d workers=%d kill=%s", window, workers, kill.name)
				dir := t.TempDir()
				inj := segfault.Inject(segfault.OS, kill.plan)
				crashDurable(t, durableQuickstart(workers, window, dir, inj))
				if !inj.Crashed() {
					t.Fatalf("%s: crash plan never fired", label)
				}
				// Resume: pristine filesystem, fresh scenario, cold
				// counters — only the spill directory carries over.
				campaign, aliasd, graph, resumed := runDurablePipeline(t,
					durableQuickstart(workers, window, dir, nil), true)
				if resumed == nil {
					t.Fatalf("%s: resumed run carries no resume record", label)
				}
				if kill.wantResumed && !resumed.Resumed {
					t.Fatalf("%s: expected checkpoint recovery, got fresh restart (%s)", label, resumed.Reason)
				}
				anyResumed = anyResumed || resumed.Resumed
				checkGolden(t, label, campaign, aliasd, graph)
			}
			if !anyResumed {
				t.Fatalf("window=%d workers=%d: no kill point exercised checkpoint recovery", window, workers)
			}
		}
	}
}

// TestDurableCompleteReplayMatchesGolden covers the crash window after
// MarkComplete but before the result is consumed: the next run must
// recognize the complete log, skip collection entirely, replay it to
// warm the fresh simulator, re-run alias resolution live, and still hit
// the goldens — even at a different worker count.
func TestDurableCompleteReplayMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	campaign, aliasd, graph, _ := runDurablePipeline(t, durableQuickstart(4, 16, dir, nil), false)
	checkGolden(t, "complete-replay first run", campaign, aliasd, graph)

	campaign, aliasd, graph, resumed := runDurablePipeline(t, durableQuickstart(1, 16, dir, nil), true)
	if resumed == nil || !resumed.Resumed || !resumed.Complete {
		t.Fatalf("second run over a complete log reported %+v, want complete replay", resumed)
	}
	checkGolden(t, "complete-replay second run", campaign, aliasd, graph)
}

// hookFS is the real filesystem behind two test hooks: it calls onSync
// at the at-th file Sync, and counts the files it opened that are still
// open (a campaign that returns must have closed its spill writer).
type hookFS struct {
	segfault.FS
	at     int
	onSync func()
	syncs  int
	open   int
}

type hookFile struct {
	segfault.File
	fs *hookFS
}

func (fs *hookFS) Create(path string) (segfault.File, error) {
	return fs.track(fs.FS.Create(path))
}

func (fs *hookFS) OpenAppend(path string) (segfault.File, error) {
	return fs.track(fs.FS.OpenAppend(path))
}

func (fs *hookFS) track(f segfault.File, err error) (segfault.File, error) {
	if err != nil {
		return nil, err
	}
	fs.open++
	return &hookFile{File: f, fs: fs}, nil
}

func (f *hookFile) Sync() error {
	f.fs.syncs++
	if f.fs.syncs == f.fs.at && f.fs.onSync != nil {
		f.fs.onSync()
	}
	return f.File.Sync()
}

func (f *hookFile) Close() error {
	f.fs.open--
	return f.File.Close()
}

// countSyncs runs one uninterrupted durable collection at window and
// returns how many log syncs it performed.
func countSyncs(t *testing.T, window int) int {
	t.Helper()
	meter := &hookFS{FS: segfault.OS}
	col := durableQuickstart(4, window, t.TempDir(), meter).Run()
	if err := col.Close(); err != nil {
		t.Fatalf("closing instrumented collection: %v", err)
	}
	return meter.syncs
}

// TestDurableCancelMidCollectionResumes cancels a durable campaign
// from inside its collection (at a log sync halfway through) and
// requires RunContext to return context.Canceled with its writer
// closed and its log on disk, and a rerun over that log with a freshly
// built scenario to resume and hit the golden digests.
func TestDurableCancelMidCollectionResumes(t *testing.T) {
	const window = 16
	syncs := countSyncs(t, window)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := &hookFS{FS: segfault.OS, at: syncs / 2, onSync: cancel}
	col, err := durableQuickstart(4, window, dir, fs).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		if col != nil {
			col.Close()
		}
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if fs.open != 0 {
		t.Fatalf("cancelled campaign left %d spill files open", fs.open)
	}
	if fi, err := os.Stat(filepath.Join(dir, "traces-comcast.seg")); err != nil || fi.Size() == 0 {
		t.Fatalf("cancelled durable campaign did not leave its log: %v", err)
	}
	campaign, aliasd, graph, resumed := runDurablePipeline(t, durableQuickstart(4, window, dir, nil), true)
	if resumed == nil || !resumed.Resumed || resumed.Complete {
		t.Fatalf("rerun after a mid-collection cancel reported %+v, want a checkpoint resume", resumed)
	}
	checkGolden(t, "resume after cancel", campaign, aliasd, graph)
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n-th call on. Collection checks Err once per flush, so it cancels a
// campaign between two given flushes without any filesystem hook
// (a non-durable spill never reaches SpillFS).
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestWindowedCancelRemovesSpill cancels a non-durable windowed
// campaign at its second flush, after the first flush has spilled
// traces, and requires the campaign to remove its spill file: nothing
// can resume a non-durable log.
func TestWindowedCancelRemovesSpill(t *testing.T) {
	dir := t.TempDir()
	c := quickstartCampaign(4)
	c.TraceWindow, c.SpillDir = 16, dir
	col, err := c.RunContext(&cancelAfter{Context: context.Background(), n: 2})
	if !errors.Is(err, context.Canceled) {
		if col != nil {
			col.Close()
		}
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("cancelled non-durable campaign left %d spill files: %s", len(left), left[0].Name())
	}
}

// TestDurableCrashReturnsErrCrash pins how a spill I/O failure leaves
// the campaign: RunContext returns an error wrapping the injected
// segfault.ErrCrash (no panic) after closing its spill writer.
func TestDurableCrashReturnsErrCrash(t *testing.T) {
	fs := &hookFS{FS: segfault.Inject(segfault.OS, segfault.Plan{Seed: 106, CrashOnLogSync: 5})}
	col, err := durableQuickstart(4, 16, t.TempDir(), fs).RunContext(context.Background())
	if !errors.Is(err, segfault.ErrCrash) {
		if col != nil {
			col.Close()
		}
		t.Fatalf("crashed campaign returned %v, want a segfault.ErrCrash", err)
	}
	if fs.open != 0 {
		t.Fatalf("crashed campaign left %d spill files open", fs.open)
	}
}
