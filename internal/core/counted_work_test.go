package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/topogen"
)

// Counted-work limits. Every counter may grow at most countSlack times
// as fast as the topology (k x scale costs at most 1.2k times the 1x
// count), and a windowed campaign may retain at most windowHeapLimit of
// what the resident campaign retains at the same scale. Clean code
// reads at most 1.01k on the counters and 0.44-0.46 on the heap. The
// limits were set against two mutations: the full backbone riding
// along in every regional MIDAR partition reads 2.91k probes at 10x,
// and a campaign that ignores its trace window, so the archive stays
// resident, reads 0.88-0.89 on the heap (EXPERIMENTS.md, "Counted-work
// scale gate").
const (
	countSlack      = 1.2
	windowHeapLimit = 0.65
)

// countedWork is one comcast campaign's deterministic work, plus the
// heap it left behind.
type countedWork struct {
	counts   [6]int
	retained int64 // post-GC HeapAlloc growth with the result alive
}

var countedWorkNames = [6]string{
	"probes sent", "traces", "addresses", "alias targets", "Mercator pairs", "MIDAR pairs",
}

// heapAfterGC is HeapAlloc after two collections: sync.Pool victim
// caches (the engine's pooled window scratch) survive the first.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runCountedWork runs the seed-7 comcast campaign at mult x scale,
// resident (window 0) or through trace windows of the given size.
func runCountedWork(t *testing.T, mult, window int) countedWork {
	t.Helper()
	var opts []Option
	if mult > 1 {
		opts = append(opts, WithScale(topogen.Scale{Regions: mult, Subscribers: mult * 100000}))
	}
	if window > 0 {
		opts = append(opts, WithTraceWindow(window), WithSpillDir(t.TempDir()))
	}
	before := heapAfterGC()
	r := NewCableStudy(7, opts...).Result("comcast")
	retained := heapAfterGC() - before
	col := r.Collection
	if col.Aliases == nil || len(r.Inference.Regions) == 0 {
		t.Fatalf("%dx window=%d: campaign inferred no regions or skipped alias resolution", mult, window)
	}
	w := countedWork{
		counts: [6]int{
			col.Stats.Sent, col.TracesRun, col.NumAddrs(), len(col.AliasTargets),
			col.Aliases.MercatorPairs, col.Aliases.MIDARPairs,
		},
		retained: retained,
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%dx window=%d: closing result: %v", mult, window, err)
	}
	return w
}

// TestCountedWorkScales is the scale gate. It runs the seed-7 comcast
// study resident and then through 4096-trace windows at 1x, 3x and 10x
// the paper topology, and checks deterministic counters rather than
// wall time:
//   - windowing changes where traces live, not what the campaign does:
//     at each scale the windowed run matches the resident run on every
//     counter;
//   - no stage goes superlinear: every counter at k x scale is at most
//     1.2k times its 1x value (the IP-ID stage partitions targets per
//     regional network, so a backbone that rides along into every
//     partition multiplies its probes by the region count);
//   - the window bounds memory: at 3x and 10x, the heap a windowed run
//     retains with its result alive stays under windowHeapLimit of what
//     the resident run retains at the same scale.
//
// Retained heap is a difference of post-GC readings around the study,
// so earlier tests in the package do not move it. Resident runs first
// at each scale; its reading also carries that scale's first-time
// growth of the package-level hostname parse memo, which the windowed
// run then shares.
func TestCountedWorkScales(t *testing.T) {
	if testing.Short() {
		t.Skip("six comcast campaigns up to 10x scale; skipped with -short")
	}
	const window = 4096
	var base countedWork
	for _, mult := range []int{1, 3, 10} {
		res := runCountedWork(t, mult, 0)
		win := runCountedWork(t, mult, window)
		for i, name := range countedWorkNames {
			if res.counts[i] != win.counts[i] {
				t.Errorf("%dx %s: resident %d, windowed %d", mult, name, res.counts[i], win.counts[i])
			}
		}
		if mult == 1 {
			base = res
		} else {
			limit := countSlack * float64(mult)
			for i, name := range countedWorkNames {
				if ratio := float64(res.counts[i]) / float64(base.counts[i]); ratio > limit {
					t.Errorf("%dx %s = %d, %.1fx the 1x count %d (limit %.1fx)",
						mult, name, res.counts[i], ratio, base.counts[i], limit)
				}
			}
			if ratio := float64(win.retained) / float64(res.retained); ratio > windowHeapLimit {
				t.Errorf("%dx windowed run retains %s, %.2f of resident %s (limit %.2f)",
					mult, mb(win.retained), ratio, mb(res.retained), windowHeapLimit)
			}
		}
		t.Logf("%dx: %s; retained resident %s, windowed %s", mult, fmtCounts(res.counts), mb(res.retained), mb(win.retained))
	}
}

func fmtCounts(c [6]int) string {
	s := ""
	for i, name := range countedWorkNames {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d", name, c[i])
	}
	return s
}

func mb(b int64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }
