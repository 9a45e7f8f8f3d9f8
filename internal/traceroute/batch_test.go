package traceroute

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/probesched"
)

// batchRow is the engine-independent content of one trace: what the
// collected (Traces) and streamed (FoldTraces) batch paths must agree on.
type batchRow struct {
	src, dst netip.Addr
	reached  bool
	hops     []Hop // responsive rows only
	stats    probesched.ProbeStats
}

// TestBatchTracesMatchFoldTraces: at every worker count, Traces and
// FoldTraces return the same per-request traces in request order and
// advance the campaign clock by the same total.
func TestBatchTracesMatchFoldTraces(t *testing.T) {
	net, vp, tgt, rs := testNet(t, 6)
	rs[2].ResponseProb = 0.5 // flaky mid-path hop: retries and gaps
	net.AddPrefix(netip.MustParsePrefix("203.0.113.0/24"), rs[5], "t")
	dsts := []netip.Addr{tgt.Addr, addr("10.0.3.2"), addr("203.0.113.9"), addr("10.0.1.2")}
	reqs := make([]probesched.Request, 26)
	for i := range reqs {
		reqs[i] = probesched.Request{Src: vp.Addr, Dst: dsts[i%len(dsts)]}
	}

	var want []batchRow
	var wantElapsed time.Duration
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := &Engine{Net: net, Attempts: 2, GapLimit: 3}
			clkA, clkB := start(), start()
			t0 := clkA.Now()
			var collected []batchRow
			for _, tr := range e.Traces(probesched.New(workers, clkA), reqs) {
				collected = append(collected, batchRow{tr.Src, tr.Dst, tr.Reached, tr.ResponsiveHops(), tr.Stats()})
			}
			elapsed := clkA.Since(t0)

			var streamed []batchRow
			e.FoldTraces(probesched.New(workers, clkB), reqs, func(i int, tv TraceView) {
				if i != len(streamed) {
					t.Fatalf("fold saw request %d, want %d", i, len(streamed))
				}
				row := batchRow{src: tv.Src, dst: tv.Dst, reached: tv.Reached, stats: tv.Stats()}
				for k := 0; k < tv.NumHops(); k++ {
					if h := tv.Hop(k); h.Responded() {
						row.hops = append(row.hops, h)
					}
				}
				streamed = append(streamed, row)
			})
			if got := clkB.Since(t0); got != elapsed {
				t.Errorf("FoldTraces advanced the clock %v, Traces %v", got, elapsed)
			}

			if workers == 1 {
				want, wantElapsed = collected, elapsed
			} else if elapsed != wantElapsed {
				t.Errorf("Traces advanced the clock %v, want %v as at workers=1", elapsed, wantElapsed)
			}
			for name, got := range map[string][]batchRow{"Traces": collected, "FoldTraces": streamed} {
				if len(got) != len(reqs) {
					t.Fatalf("%s returned %d traces, want %d", name, len(got), len(reqs))
				}
				for i := range got {
					if got[i].src != reqs[i].Src || got[i].dst != reqs[i].Dst {
						t.Fatalf("%s[%d] is %v->%v, want request order %v->%v",
							name, i, got[i].src, got[i].dst, reqs[i].Src, reqs[i].Dst)
					}
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Errorf("%s[%d] = %+v, want %+v", name, i, got[i], want[i])
					}
				}
			}
		})
	}
}
