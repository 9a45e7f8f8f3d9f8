package traceroute

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/probesched"
)

func TestTraceOutcomeLedgerAccountsEveryProbe(t *testing.T) {
	net, vp, tgt, _ := testNet(t, 5)
	net.SetFaultPlan(netsim.FaultPlan{Seed: 7, LinkLoss: 0.2})
	for _, mode := range []Mode{Sequential, Parallel} {
		e := &Engine{Net: net, Clock: start(), Mode: mode, Attempts: 3}
		tr := e.Trace(vp.Addr, tgt.Addr)
		s := tr.Stats()
		if !s.Consistent() {
			t.Errorf("mode %d: ledger inconsistent: %+v", mode, s)
		}
		if s.Sent != tr.Probes {
			t.Errorf("mode %d: Stats().Sent = %d, Probes = %d", mode, s.Sent, tr.Probes)
		}
		if s.Sent == 0 || s.Replied == 0 {
			t.Errorf("mode %d: degenerate ledger %+v", mode, s)
		}
		if s.Lost == 0 {
			t.Errorf("mode %d: 20%% link loss over a 5-hop chain lost nothing: %+v", mode, s)
		}
	}
}

func TestRetryBackoffConsumesVirtualTime(t *testing.T) {
	net, vp, tgt, rs := testNet(t, 3)
	// Silence the first hop so every trace retries it to exhaustion.
	net.SetFaultPlan(netsim.FaultPlan{Silent: []netsim.RouterID{rs[1].ID}})

	run := func(backoff time.Duration) (Trace, time.Duration) {
		clk := start()
		t0 := clk.Now()
		e := &Engine{Net: net, Clock: clk, Attempts: 3, RetryBackoff: backoff}
		tr := e.Trace(vp.Addr, tgt.Addr)
		return tr, clk.Since(t0)
	}

	plain, plainElapsed := run(0)
	backed, backedElapsed := run(400 * time.Millisecond)
	if plain.Retries == 0 || backed.Retries == 0 {
		t.Fatalf("silent hop produced no retries: plain %+v backed %+v", plain.Stats(), backed.Stats())
	}
	// The silent hop burns 3 attempts; retries 1 and 2 wait an extra
	// 1*backoff and 2*backoff, so the traces differ by exactly 3*backoff.
	wantExtra := 3 * 400 * time.Millisecond
	if got := backedElapsed - plainElapsed; got != wantExtra {
		t.Errorf("backoff added %v of virtual time, want %v", got, wantExtra)
	}
	if got := backed.ActiveTime - plain.ActiveTime; got != wantExtra {
		t.Errorf("backoff added %v of active time, want %v", got, wantExtra)
	}
	// Identical hop output: backoff changes when retries fire, not what
	// they observe on a time-independent fault.
	if len(backed.Hops) != len(plain.Hops) {
		t.Errorf("hop counts differ: %d vs %d", len(backed.Hops), len(plain.Hops))
	}
}

func TestRetryBackoffOutwaitsBlackout(t *testing.T) {
	// Every router blacks out for 3s somewhere in each hour-long period.
	// A plain schedule (2 attempts, 1s timeout) that hits the window
	// dies inside it; a backed-off schedule's later retries can land
	// after the blackout lifts, so it must never see fewer hops.
	net, vp, tgt, _ := testNet(t, 3)
	net.SetFaultPlan(netsim.FaultPlan{
		BlackoutFrac:   1,
		BlackoutPeriod: time.Hour,
		BlackoutDur:    3 * time.Second,
	})
	responsive := func(tr Trace) int {
		n := 0
		for _, h := range tr.Hops {
			if h.Responded() {
				n++
			}
		}
		return n
	}
	plain := responsive((&Engine{Net: net, Clock: start(), Attempts: 2}).Trace(vp.Addr, tgt.Addr))
	backed := responsive((&Engine{Net: net, Clock: start(), Attempts: 4, RetryBackoff: 2 * time.Second}).Trace(vp.Addr, tgt.Addr))
	if backed < plain {
		t.Errorf("backoff schedule saw %d responsive hops, plain saw %d", backed, plain)
	}
}

func TestProbeBudgetTruncates(t *testing.T) {
	net, vp, tgt, _ := testNet(t, 6)
	// A silent middle makes the trace burn attempts.
	net.SetFaultPlan(netsim.FaultPlan{SilentFrac: 1})
	for _, mode := range []Mode{Sequential, Parallel} {
		e := &Engine{Net: net, Clock: start(), Mode: mode, Attempts: 3, ProbeBudget: 4}
		tr := e.Trace(vp.Addr, tgt.Addr)
		if !tr.Truncated {
			t.Errorf("mode %d: budget-exhausted trace not marked truncated", mode)
		}
		// The budget may be overshot only by the in-flight attempt row
		// semantics: checks run before each send, so Probes <= budget+0.
		if tr.Probes > 4 {
			t.Errorf("mode %d: sent %d probes on a budget of 4", mode, tr.Probes)
		}
		for _, h := range tr.Hops {
			if h.TTL == 0 {
				t.Errorf("mode %d: zero-probe hop row appended", mode)
			}
		}
		if !tr.Stats().Consistent() {
			t.Errorf("mode %d: inconsistent ledger %+v", mode, tr.Stats())
		}
	}
}

func TestApplyResilience(t *testing.T) {
	e := &Engine{}
	e.ApplyResilience(probesched.Resilience{})
	if e.Attempts != 0 || e.RetryBackoff != 0 || e.ProbeBudget != 0 {
		t.Errorf("zero policy mutated engine: %+v", e)
	}
	e.ApplyResilience(probesched.Resilience{Attempts: 5, RetryBackoff: 100 * time.Millisecond, TraceBudget: 64})
	if e.Attempts != 5 || e.RetryBackoff != 100*time.Millisecond || e.ProbeBudget != 64 {
		t.Errorf("policy not applied: %+v", e)
	}
}

func TestZeroResilienceTraceBitIdentical(t *testing.T) {
	netA, vp, tgt, _ := testNet(t, 4)
	netB, vp2, tgt2, _ := testNet(t, 4)
	netB.SetFaultPlan(netsim.FaultPlan{})
	a := (&Engine{Net: netA, Clock: start()}).Trace(vp.Addr, tgt.Addr)
	b := (&Engine{Net: netB, Clock: start()}).Trace(vp2.Addr, tgt2.Addr)
	if len(a.Hops) != len(b.Hops) || a.Probes != b.Probes || a.ActiveTime != b.ActiveTime {
		t.Fatalf("empty fault plan changed trace shape: %+v vs %+v", a, b)
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			t.Errorf("hop %d differs: %+v vs %+v", i, a.Hops[i], b.Hops[i])
		}
	}
}

// TestSilentTraceMatchesProbingLoop holds the silent-flow shortcut to
// the probing loop it skips. Toward an unresolvable destination under an
// active fault plan that acts only at routers, a trace is not silent: it
// calls Flow.Probe for every probe, and each reply is the zero Reply.
// Silent traces never call it — toward the same destination with no
// plan, and from an unregistered source with or without a plan — and
// must match that trace in hop rows, ledger, active time and virtual
// clock, in both modes, with retries, backoff and probe budgets.
func TestSilentTraceMatchesProbingLoop(t *testing.T) {
	net, vp, tgt, _ := testNet(t, 4)
	nowhere := addr("203.0.113.9")
	stranger := addr("192.0.2.200")
	routerFaults := netsim.FaultPlan{Seed: 3, LinkLoss: 0.2, ICMPRate: 2, BlackoutFrac: 0.5, SilentFrac: 0.5}
	churn := netsim.FaultPlan{Seed: 3, VPChurnFrac: 1, VPOfflineFrac: 1, OfflineVPs: []netip.Addr{stranger}}
	run := func(cfg Engine, plan netsim.FaultPlan, src, dst netip.Addr, wantSilent bool) (Trace, time.Duration) {
		t.Helper()
		net.SetFaultPlan(plan)
		if f := net.CompileFlow(src, dst, 0); f.Silent() != wantSilent {
			t.Fatalf("%v->%v under %v: Silent() = %v, want %v", src, dst, plan, f.Silent(), wantSilent)
		}
		clk := start()
		t0 := clk.Now()
		cfg.Net, cfg.Clock = net, clk
		tr := cfg.Trace(src, dst)
		tr.Src, tr.Dst, tr.FlowID = netip.Addr{}, netip.Addr{}, 0
		return tr, clk.Since(t0)
	}
	for _, cfg := range []Engine{
		{Mode: Sequential},
		{Mode: Parallel},
		{Mode: Sequential, Attempts: 3, RetryBackoff: 250 * time.Millisecond},
		{Mode: Parallel, Attempts: 3, RetryBackoff: 250 * time.Millisecond},
		{Mode: Sequential, Attempts: 3, ProbeBudget: 7},
		{Mode: Parallel, Attempts: 3, ProbeBudget: 7, Window: 3},
		{Mode: Parallel, Window: 3, GapLimit: 7, MaxTTL: 12},
	} {
		want, wantElapsed := run(cfg, routerFaults, vp.Addr, nowhere, false)
		if want.Probes == 0 || want.Lost != want.Probes {
			t.Fatalf("%+v: reference trace sent %d probes, lost %d", cfg, want.Probes, want.Lost)
		}
		for _, c := range []struct {
			plan     netsim.FaultPlan
			src, dst netip.Addr
		}{
			{netsim.FaultPlan{}, vp.Addr, nowhere},
			{netsim.FaultPlan{}, stranger, tgt.Addr},
			{routerFaults, stranger, nowhere},
			{churn, stranger, tgt.Addr},
		} {
			got, elapsed := run(cfg, c.plan, c.src, c.dst, true)
			if !reflect.DeepEqual(got, want) || elapsed != wantElapsed {
				t.Errorf("%+v, %v->%v under %v: silent trace %+v after %v, probing loop %+v after %v",
					cfg, c.src, c.dst, c.plan, got, elapsed, want, wantElapsed)
			}
		}
	}
}
