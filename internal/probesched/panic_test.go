package probesched

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/vclock"
)

func catchJobPanic(t *testing.T, f func()) *JobPanicError {
	t.Helper()
	var pe *JobPanicError
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("expected a panic, got none")
			}
			var ok bool
			pe, ok = v.(*JobPanicError)
			if !ok {
				t.Fatalf("panic value is %T, want *JobPanicError", v)
			}
		}()
		f()
	}()
	return pe
}

func TestMapSurvivesPanickingJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		start := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
		clk := vclock.New(start)
		p := New(workers, clk)
		jobs := make([]int, 64)
		for i := range jobs {
			jobs[i] = i
		}
		var out []int
		pe := catchJobPanic(t, func() {
			out = Map(p, jobs, func(c *vclock.Clock, j int) int {
				c.Advance(time.Millisecond)
				if j == 17 {
					panic(errors.New("boom"))
				}
				return j * 2
			})
		})
		if pe.Job != 17 {
			t.Errorf("workers=%d: panic job = %d, want 17", workers, pe.Job)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic stack not captured", workers)
		}
		if pe.Error() == "" {
			t.Errorf("workers=%d: empty error string", workers)
		}
		if out != nil {
			t.Errorf("workers=%d: Map returned a slice despite panicking", workers)
		}
		// Every job (including the panicking one, which advanced its
		// clock before dying) is charged to the campaign clock.
		if got := clk.Since(start); got != 64*time.Millisecond {
			t.Errorf("workers=%d: clock advanced %v, want 64ms", workers, got)
		}
	}
}

func TestMapFoldSurvivesPanickingJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers, vclock.New(time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)))
		jobs := make([]int, 48)
		for i := range jobs {
			jobs[i] = i + 1
		}
		folded := make([]int, 0, len(jobs))
		pe := catchJobPanic(t, func() {
			MapFold(p, jobs, noScratch, func(struct{}) {},
				func(c *vclock.Clock, _ struct{}, j int) int {
					if j == 30 {
						panic("mapfold boom")
					}
					return j
				},
				func(i int, r int) { folded = append(folded, r) })
		})
		if pe.Job != 29 {
			t.Errorf("workers=%d: panic job = %d, want 29", workers, pe.Job)
		}
		// The fold saw every job in canonical order, with the zero value
		// standing in for the dead one.
		if len(folded) != len(jobs) {
			t.Fatalf("workers=%d: fold saw %d of %d jobs", workers, len(folded), len(jobs))
		}
		for i, r := range folded {
			want := i + 1
			if i == 29 {
				want = 0
			}
			if r != want {
				t.Errorf("workers=%d: fold[%d] = %d, want %d", workers, i, r, want)
			}
		}
	}
}

func TestReduceSurvivesPanickingAccum(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers, nil)
		pe := catchJobPanic(t, func() {
			Reduce(p, 100,
				func() int { return 0 },
				func(a, i int) int {
					if i == 41 {
						panic("reduce boom")
					}
					return a + i
				},
				func(into, from int) int { return into + from })
		})
		if pe.Job != 41 {
			t.Errorf("workers=%d: panic job = %d, want 41", workers, pe.Job)
		}
	}
}

func TestLowestJobIndexPanicWins(t *testing.T) {
	p := New(4, vclock.New(time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)))
	jobs := make([]int, 64)
	pe := catchJobPanic(t, func() {
		Map(p, jobs, func(c *vclock.Clock, j int) int {
			panic("all boom")
		})
	})
	if pe.Job != 0 {
		t.Errorf("panic job = %d, want 0 (lowest index)", pe.Job)
	}
}

func TestProbeStatsAccounting(t *testing.T) {
	var s ProbeStats
	s.Observe(true, false, false)
	s.Observe(false, true, false)
	s.Observe(false, false, true)
	s.Observe(false, false, false)
	if !s.Consistent() {
		t.Fatalf("inconsistent ledger: %+v", s)
	}
	if s.Sent != 4 || s.Replied != 1 || s.RateLimited != 1 || s.Lost != 2 || s.Retries != 1 {
		t.Errorf("ledger = %+v", s)
	}
	var total ProbeStats
	total.Add(s)
	total.Add(s)
	if total.Sent != 8 || !total.Consistent() {
		t.Errorf("after Add: %+v", total)
	}
	if lr := total.LossRate(); lr != 0.5 {
		t.Errorf("loss rate = %v, want 0.5", lr)
	}
	if (ProbeStats{}).LossRate() != 0 {
		t.Error("empty ledger loss rate != 0")
	}
}

func TestBreaker(t *testing.T) {
	vp1 := netip.MustParseAddr("10.1.0.1")
	vp2 := netip.MustParseAddr("10.0.0.1")
	vp3 := netip.MustParseAddr("10.2.0.1")
	b := NewBreaker(3)
	for i := 0; i < 2; i++ {
		b.Record(vp1, true)
	}
	if b.Quarantined(vp1) {
		t.Error("quarantined below threshold")
	}
	b.Record(vp1, true)
	if !b.Quarantined(vp1) {
		t.Error("zero-yield VP not quarantined at threshold")
	}
	// vp2 answers once early; any number of empty traces afterwards
	// must not bench it — healthy VPs sweep long runs of dark targets.
	b.Record(vp2, false)
	for i := 0; i < 10; i++ {
		b.Record(vp2, true)
	}
	if b.Quarantined(vp2) {
		t.Error("VP with lifetime yield quarantined")
	}
	for i := 0; i < 3; i++ {
		b.Record(vp3, true)
	}
	got := b.QuarantinedVPs()
	if len(got) != 2 || got[0] != vp1 || got[1] != vp3 {
		t.Errorf("QuarantinedVPs = %v, want sorted [%v %v]", got, vp1, vp3)
	}

	var nilB *Breaker
	nilB.Record(vp1, true)
	if nilB.Quarantined(vp1) || nilB.QuarantinedVPs() != nil {
		t.Error("nil breaker not inert")
	}
	if NewBreaker(0) != nil {
		t.Error("NewBreaker(0) should return the inert nil breaker")
	}
	if (Resilience{}).Enabled() {
		t.Error("zero Resilience reports enabled")
	}
	if !(Resilience{Attempts: 3}).Enabled() {
		t.Error("nonzero Resilience reports disabled")
	}
}
