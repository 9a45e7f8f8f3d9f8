package ping

import (
	"fmt"
	"testing"

	"repro/internal/probesched"
)

// TestOutcomesRequestOrderAndDispatch: Outcomes returns one outcome per
// request in request order, runs a plain echo series when Request.TTL
// is zero and the TTL-limited series otherwise, and matches the direct
// Ping/TTLLimited calls at every worker count.
func TestOutcomesRequestOrderAndDispatch(t *testing.T) {
	net, vp, tgt, _ := testNet(t)
	reqs := make([]probesched.Request, 12)
	for i := range reqs {
		reqs[i] = probesched.Request{Src: vp.Addr, Dst: tgt.Addr, Count: i + 1}
		if i%2 == 1 {
			reqs[i].TTL = 3 // the last router before the host
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clk := clock()
			p := &Pinger{Net: net, Clock: clk}
			outs := p.Outcomes(probesched.New(workers, clk), reqs)
			if len(outs) != len(reqs) {
				t.Fatalf("Outcomes returned %d results, want %d", len(outs), len(reqs))
			}
			for i, out := range outs {
				req := reqs[i]
				if out.Sent != req.Count {
					t.Fatalf("outcome %d sent %d probes, want request order (count %d)", i, out.Sent, req.Count)
				}
				direct := &Pinger{Net: net, Clock: clock()}
				var want Outcome
				if req.TTL > 0 {
					want.Series, want.From = direct.TTLLimited(req.Src, req.Dst, req.TTL, req.Count)
					if want.From != addr("10.0.2.2") {
						t.Fatalf("TTL-limited reference replied from %v", want.From)
					}
				} else {
					want.Series = direct.Ping(req.Src, req.Dst, req.Count)
				}
				if fmt.Sprint(out) != fmt.Sprint(want) {
					t.Errorf("outcome %d (ttl=%d) = %+v, want %+v", i, req.TTL, out, want)
				}
			}
		})
	}
}
