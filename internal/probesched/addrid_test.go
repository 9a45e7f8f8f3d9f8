package probesched_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comap"
	"repro/internal/segfault"
)

// addrIDDigest hashes a Collection's AddrID table and the raw ID
// sequence of every path EachPath yields — the IDs themselves, not the
// addresses they resolve to — so it moves whenever ID assignment does.
func addrIDDigest(col *comap.Collection) [32]byte {
	var b strings.Builder
	for id := 0; id < col.NumAddrs(); id++ {
		fmt.Fprintf(&b, "%d=%s\n", id, col.Addr(comap.AddrID(id)))
	}
	col.EachPath(func(i int, p comap.Path, stage string) {
		fmt.Fprintf(&b, "%d %s %d>%d %v %v %v\n", i, stage, p.Src, p.Dst, p.Reached, p.Hops, p.Gaps)
	})
	return sha256.Sum256([]byte(b.String()))
}

// TestAddrIDsStableAcrossWorkersAndWindows pins that AddrIDs are
// assigned in the in-order collection fold's first-seen order: the ID
// table and every path's ID sequence are identical at any worker count,
// resident or windowed at any window size, and after a durable campaign
// is killed and resumed from its spill directory.
func TestAddrIDsStableAcrossWorkersAndWindows(t *testing.T) {
	var base [32]byte
	first := true
	check := func(label string, col *comap.Collection) {
		t.Helper()
		if col.NumAddrs() == 0 || col.NumPaths() == 0 {
			t.Fatalf("%s: empty archive (%d addrs, %d paths)", label, col.NumAddrs(), col.NumPaths())
		}
		d := addrIDDigest(col)
		if first {
			base, first = d, false
			return
		}
		if d != base {
			t.Fatalf("%s: AddrID table or path ID sequences differ from workers=1 window=0", label)
		}
	}
	for _, window := range []int{0, 16, 4096} {
		for _, workers := range []int{1, 4} {
			c := quickstartCampaign(workers)
			c.SkipAlias = true
			c.TraceWindow = window
			if window > 0 {
				c.SpillDir = t.TempDir()
			}
			col := c.Run()
			check(fmt.Sprintf("workers=%d window=%d", workers, window), col)
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if testing.Short() {
		return
	}
	// Kill a durable campaign mid-collection and resume it with a cold
	// scenario: the restored flushes re-intern the recovered log, the
	// live ones continue, and the IDs must come out the same.
	meter := segfault.Inject(segfault.OS, segfault.Plan{})
	mc := durableQuickstart(4, 16, t.TempDir(), meter)
	mc.SkipAlias = true
	if err := mc.Run().Close(); err != nil {
		t.Fatal(err)
	}
	syncs, _ := meter.Counts()
	dir := t.TempDir()
	killed := durableQuickstart(4, 16, dir, segfault.Inject(segfault.OS, segfault.Plan{Seed: 102, CrashOnLogSync: 2 + (syncs-2)/2}))
	killed.SkipAlias = true
	crashDurable(t, killed)
	resumed := durableQuickstart(1, 16, dir, nil)
	resumed.SkipAlias = true
	col := resumed.Run()
	defer col.Close()
	if col.Resumed == nil || !col.Resumed.Resumed {
		t.Fatalf("kill at log sync %d did not resume from a checkpoint: %+v", 2+(syncs-2)/2, col.Resumed)
	}
	check("durable kill-and-resume", col)
}
