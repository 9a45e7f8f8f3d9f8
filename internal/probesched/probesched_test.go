package probesched

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

var epoch = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

func TestMapPreservesJobOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		clk := vclock.New(epoch)
		p := New(workers, clk)
		jobs := make([]int, 50)
		for i := range jobs {
			jobs[i] = i
		}
		out := Map(p, jobs, func(_ *vclock.Clock, j int) int { return j * j })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapAdvancesClockBySum(t *testing.T) {
	// Each job advances its private clock by (i+1) ms; the campaign
	// clock must end up at the sum regardless of worker count.
	jobs := make([]int, 20)
	for i := range jobs {
		jobs[i] = i
	}
	var want time.Duration
	for i := range jobs {
		want += time.Duration(i+1) * time.Millisecond
	}
	for _, workers := range []int{1, 4, 16} {
		clk := vclock.New(epoch)
		p := New(workers, clk)
		Map(p, jobs, func(c *vclock.Clock, j int) struct{} {
			c.Advance(time.Duration(j+1) * time.Millisecond)
			return struct{}{}
		})
		if got := clk.Since(epoch); got != want {
			t.Fatalf("workers=%d: clock advanced %v, want %v", workers, got, want)
		}
	}
}

func TestMapForksFromBatchStart(t *testing.T) {
	clk := vclock.New(epoch)
	clk.Advance(time.Hour)
	p := New(4, clk)
	starts := Map(p, []int{0, 1, 2, 3}, func(c *vclock.Clock, _ int) time.Time {
		return c.Now()
	})
	for i, s := range starts {
		if !s.Equal(epoch.Add(time.Hour)) {
			t.Fatalf("job %d saw clock %v, want batch start %v", i, s, epoch.Add(time.Hour))
		}
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	clk := vclock.New(epoch)
	p := New(0, clk)
	if p.workers < 1 {
		t.Fatalf("New(0, ...) workers = %d, want >= 1", p.workers)
	}
	if out := Map(p, nil, func(*vclock.Clock, int) int { return 1 }); out != nil {
		t.Fatalf("Map over no jobs = %v, want nil", out)
	}
	if !clk.Now().Equal(epoch) {
		t.Fatal("empty Map moved the clock")
	}
}

func TestRequestZeroValueIsTraceShape(t *testing.T) {
	var r Request
	if r.TTL != 0 || r.Count != 0 {
		t.Fatal("zero Request must select plain traceroute semantics")
	}
}
