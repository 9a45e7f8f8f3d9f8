package probesched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

// noScratch is the scratch lease of tests that fold without one.
func noScratch() struct{} { return struct{}{} }

// TestMapFoldStreamsInOrder checks that fold observes exactly the
// sequence (0, r0), (1, r1), ... at every worker count, and that the
// campaign clock lands on the same instant Map would have produced.
func TestMapFoldStreamsInOrder(t *testing.T) {
	const n = 1003
	jobs := make([]int, n)
	for i := range jobs {
		jobs[i] = i
	}
	run := func(clk *vclock.Clock, job int) int {
		// Uneven virtual cost so stragglers exercise the out-of-order
		// chunk completion path.
		clk.Advance(time.Duration(job%7+1) * time.Millisecond)
		return job * 3
	}

	var wantClock time.Time
	var wantOrder []int
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clock := vclock.New(time.Unix(0, 0).UTC())
			p := New(workers, clock)
			var order []int
			var sum int
			MapFold(p, jobs, noScratch, func(struct{}) {}, func(clk *vclock.Clock, _ struct{}, job int) int {
				return run(clk, job)
			}, func(i int, r int) {
				order = append(order, i)
				sum += r
			})
			for i, got := range order {
				if got != i {
					t.Fatalf("fold index %d observed as %d", i, got)
				}
			}
			if len(order) != n {
				t.Fatalf("folded %d results, want %d", len(order), n)
			}
			if want := 3 * n * (n - 1) / 2; sum != want {
				t.Fatalf("folded sum = %d, want %d", sum, want)
			}
			if workers == 1 {
				wantClock = clock.Now()
				wantOrder = order
			} else {
				if !clock.Now().Equal(wantClock) {
					t.Fatalf("clock after MapFold = %v, want %v", clock.Now(), wantClock)
				}
				if len(order) != len(wantOrder) {
					t.Fatalf("fold count differs across workers")
				}
			}

			// Map over the same jobs must advance an identical total.
			clock2 := vclock.New(time.Unix(0, 0).UTC())
			res := Map(New(workers, clock2), jobs, run)
			if !clock2.Now().Equal(wantClock) {
				t.Fatalf("Map clock = %v, want %v", clock2.Now(), wantClock)
			}
			for i, r := range res {
				if r != i*3 {
					t.Fatalf("Map result[%d] = %d, want %d", i, r, i*3)
				}
			}
		})
	}
}

// TestMapFoldNilFold checks Map's delegation path: a nil fold must not
// deadlock (workers buffer chunk completions) and must return the full
// result slice.
func TestMapFoldNilFold(t *testing.T) {
	jobs := make([]int, 257)
	for i := range jobs {
		jobs[i] = i
	}
	p := New(4, vclock.New(time.Unix(0, 0).UTC()))
	res := Map(p, jobs, func(clk *vclock.Clock, job int) int { return job + 1 })
	for i, r := range res {
		if r != i+1 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i+1)
		}
	}
}

// TestReduceMatchesSequential checks the shard-accumulate-merge result
// equals the sequential fold for a contiguity-sensitive accumulator
// (first-wins per key plus a count), at every worker count.
func TestReduceMatchesSequential(t *testing.T) {
	const n = 1201
	type acc struct {
		first map[int]int // key -> first index that produced it
		count int
	}
	key := func(i int) int { return i % 97 }
	initA := func() acc { return acc{first: make(map[int]int)} }
	accum := func(a acc, i int) acc {
		if _, ok := a.first[key(i)]; !ok {
			a.first[key(i)] = i
		}
		a.count++
		return a
	}
	merge := func(into, from acc) acc {
		for k, v := range from.first {
			if _, ok := into.first[k]; !ok {
				into.first[k] = v
			}
		}
		into.count += from.count
		return into
	}

	seq := initA()
	for i := 0; i < n; i++ {
		seq = accum(seq, i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers, vclock.New(time.Unix(0, 0).UTC()))
			got := Reduce(p, n, initA, accum, merge)
			if got.count != seq.count {
				t.Fatalf("count = %d, want %d", got.count, seq.count)
			}
			if len(got.first) != len(seq.first) {
				t.Fatalf("len(first) = %d, want %d", len(got.first), len(seq.first))
			}
			for k, v := range seq.first {
				if got.first[k] != v {
					t.Fatalf("first[%d] = %d, want %d", k, got.first[k], v)
				}
			}
		})
	}
}

// TestReduceEmpty checks the n=0 path returns a bare init().
func TestReduceEmpty(t *testing.T) {
	p := New(4, vclock.New(time.Unix(0, 0).UTC()))
	got := Reduce(p, 0,
		func() int { return 42 },
		func(a int, i int) int { return a + i },
		func(into, from int) int { return into + from })
	if got != 42 {
		t.Fatalf("Reduce over empty range = %d, want 42", got)
	}
}
