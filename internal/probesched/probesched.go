// Package probesched is the deterministic parallel probe scheduler: it
// fans independent measurement jobs (traceroutes, ping series, alias
// probes) across a worker pool against a thread-safe netsim.Network and
// gathers the results in canonical submission order, so the same seed
// produces byte-identical campaign output at any GOMAXPROCS and any
// worker count — including workers=1, which is exactly the historical
// sequential path.
//
// # Why this is deterministic
//
// Three properties carry the proof:
//
//  1. Probe replies are pure functions of (network seed, probe
//     parameters): jitter, rate-limit draws, and ECMP tie-breaks in
//     netsim are splitmix-style hashes keyed by (seed, src, dst, ttl,
//     seq), never draws from a shared sequential RNG, so no job can
//     perturb another's replies. (IP-ID values additionally depend on
//     shared counters and virtual time, but traceroute and ping discard
//     them; the IP-ID-sensitive MIDAR stage always runs sequentially.)
//
//  2. Every job runs on a private clock reset to the campaign clock's
//     batch-start instant. A job's elapsed virtual time is a function
//     of its own replies only, so it too is schedule-independent.
//
//  3. After the batch, the campaign clock advances by the sum of
//     per-job elapsed times folded in submission order — the exact
//     total a sequential run would have accumulated — so everything
//     downstream (IP-ID velocity sampling, round timestamps) observes
//     the same virtual instant it always did.
//
// Results are gathered into a slice indexed by job position, so callers
// fold them in submission order no matter which worker finished first.
package probesched

import (
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// JobPanicError is the typed error a panicking job is converted into.
// The pool recovers the panic on the worker, lets every other job (and
// the fold, and the clock advance) finish normally, then re-panics with
// this error — carrying the canonical job index and the original stack
// — from the caller's goroutine. One bad job therefore cannot deadlock
// a batch or strand worker goroutines, but it also cannot be silently
// swallowed. When several jobs panic, the lowest job index wins (it is
// the one a sequential run would have hit first).
type JobPanicError struct {
	// Job is the canonical index of the panicking job (or, for Reduce,
	// the accumulator index being folded when the panic fired).
	Job int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("probesched: job %d panicked: %v", e.Job, e.Value)
}

// Pool schedules probe jobs over a fixed number of workers against one
// campaign clock. A Pool is cheap to create; campaigns typically build
// one per collection stage. The zero-value Pool is not usable;
// construct with New.
type Pool struct {
	workers int
	clock   *vclock.Clock
}

// New returns a pool with the given worker count on the given campaign
// clock. workers <= 0 selects runtime.GOMAXPROCS(0). The clock must not
// be nil for pools that schedule probes (Map, MapFold); a compute-only
// pool used exclusively with Reduce may pass a nil clock, since
// analysis work consumes no virtual time.
func New(workers int, clock *vclock.Clock) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, clock: clock}
}

// Map runs one job per element of jobs across the pool's workers and
// returns the results in job order. Each invocation of run receives a
// private clock forked from the campaign clock at batch start; after
// every job completes, the campaign clock advances by the sum of
// per-job elapsed virtual times, folded in job order. Both the result
// slice and the final clock reading are therefore independent of worker
// count and goroutine scheduling.
func Map[J, R any](p *Pool, jobs []J, run func(clk *vclock.Clock, job J) R) []R {
	return mapFoldCore(p, jobs, func() struct{} { return struct{}{} }, func(struct{}) {},
		func(clk *vclock.Clock, _ struct{}, job J) R { return run(clk, job) }, nil)
}

// MapFold runs jobs like Map but streams the results, in job order, to
// fold on the caller's goroutine while later jobs are still in flight.
// Workers claim contiguous job chunks and announce each finished chunk;
// the caller folds a chunk as soon as every earlier chunk has been
// folded, so at any instant the fold is consuming chunk k while workers
// produce chunks k+1....
//
// Every worker chunk additionally leases a scratch value: get is called
// when a worker starts a chunk, each of the chunk's jobs runs with that
// scratch, and put is called only after the chunk's results have been
// folded. Results may therefore reference their chunk's scratch (the
// columnar trace store hands out views into a shared hop buffer this
// way) — the scratch is guaranteed alive until the fold has consumed
// them, and put typically resets and pools it for the next chunk. On
// the workers<=1 sequential path every job is its own chunk: get, run,
// fold, put, in job order.
//
// Determinism is unchanged from Map: fold observes exactly the sequence
// (0, r0), (1, r1), ... regardless of worker count or scheduling, and
// the campaign clock advances by the identical job-order elapsed total
// after the batch. fold must be non-nil and must not submit probes on
// the campaign clock (it runs before the batch advance).
func MapFold[J, R, S any](p *Pool, jobs []J, get func() S, put func(S),
	run func(clk *vclock.Clock, scratch S, job J) R, fold func(i int, r R)) {
	mapFoldCore(p, jobs, get, put, run, fold)
}

// chunksPerWorker over-partitions the job list so a straggler chunk
// cannot idle the other workers; minChunk bounds the per-chunk
// bookkeeping for short job lists.
const (
	chunksPerWorker = 8
	minChunk        = 4
)

// mapFoldCore is the shared engine behind Map and MapFold. With a nil
// fold (Map) it writes results into one batch-sized slice and returns
// it. With a fold (MapFold), results live in per-chunk buffers recycled
// through a sync.Pool the moment the fold has consumed them, so a large
// batch costs O(in-flight chunks) result memory instead of O(jobs) —
// the campaign fold path's main saving.
//
// Determinism is identical either way: fold observes exactly the
// sequence (0, r0), (1, r1), ..., and the campaign clock advances by
// the per-job elapsed total. Elapsed time is accumulated per chunk and
// the chunk totals summed in chunk order; integer addition of
// durations makes that the same sum a per-job fold in job order would
// produce, so the clock reading is bit-identical to the historical
// path.
func mapFoldCore[J, R, S any](p *Pool, jobs []J, get func() S, put func(S),
	run func(clk *vclock.Clock, scratch S, job J) R, fold func(i int, r R)) []R {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	start := p.clock.Now()
	collect := fold == nil
	var out []R
	if collect {
		out = make([]R, n)
	}

	// Each worker owns one clock and resets it to the batch-start
	// instant between jobs — equivalent to forking a fresh clock per
	// job (a job only ever observes "start plus its own advances") but
	// without the per-job allocation. A panicking job is recovered into
	// its chunk's first-panic slot so the batch still completes (its
	// result stays the zero value, which the fold observes like any
	// other); the elapsed time it consumed before dying is still charged
	// to the campaign clock, exactly as a sequential run would have.
	runJob := func(clk *vclock.Clock, scratch S, i int, dst *R, elapsed *time.Duration, pe **JobPanicError) {
		clk.Reset(start)
		defer func() {
			*elapsed += clk.Since(start)
			if v := recover(); v != nil && *pe == nil {
				*pe = &JobPanicError{Job: i, Value: v, Stack: debug.Stack()}
			}
		}()
		*dst = run(clk, scratch, jobs[i])
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// The historical sequential path: run and fold interleaved, in
		// job order. Each job is its own scratch chunk: the scratch is
		// returned (and typically reset) only after the fold consumed
		// the result that may reference it.
		clk := vclock.New(start)
		var total time.Duration
		var firstPanic *JobPanicError
		var slot R
		for i := range jobs {
			dst := &slot
			if collect {
				dst = &out[i]
			} else {
				var zero R
				slot = zero
			}
			scratch := get()
			runJob(clk, scratch, i, dst, &total, &firstPanic)
			if !collect {
				fold(i, *dst)
			}
			put(scratch)
		}
		p.clock.Advance(total)
		if firstPanic != nil {
			panic(firstPanic)
		}
		return out
	}

	chunk := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunk < minChunk {
		chunk = minChunk
	}
	numChunks := (n + chunk - 1) / chunk
	span := func(c int) (int, int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	elapsed := make([]time.Duration, numChunks)
	panics := make([]*JobPanicError, numChunks)
	// Streaming mode parks each finished chunk's result buffer and
	// scratch until the folder reaches it in canonical order; buffers
	// recycle through bufPool once folded.
	//
	// It also bounds in-flight chunks: a worker must take a token before
	// claiming a chunk index, and the folder returns the token only
	// after folding that chunk. With a slow fold (the windowed campaign
	// flush spilling segments to disk) workers therefore park instead of
	// racing ahead and parking O(numChunks) result buffers — resident
	// result memory is O(workers), independent of batch size. quit
	// unblocks token waiters when folding ends (or panics), so no worker
	// goroutine can leak.
	var (
		bufs      []*[]R
		scratches []S
		bufPool   sync.Pool
		tokens    chan struct{}
		quit      chan struct{}
	)
	if !collect {
		bufs = make([]*[]R, numChunks)
		scratches = make([]S, numChunks)
		bufPool.New = func() any { s := make([]R, 0, chunk); return &s }
		maxInFlight := workers * 2
		if maxInFlight > numChunks {
			maxInFlight = numChunks
		}
		tokens = make(chan struct{}, maxInFlight)
		for i := 0; i < maxInFlight; i++ {
			tokens <- struct{}{}
		}
		quit = make(chan struct{})
	}
	// done is buffered to numChunks so workers never block on a slow
	// folder (or on nobody draining it in collect mode).
	done := make(chan int, numChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			clk := vclock.New(start)
			for {
				if tokens != nil {
					select {
					case <-tokens:
					case <-quit:
						return
					}
				}
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				lo, hi := span(c)
				scratch := get()
				var buf []R
				var bp *[]R
				if !collect {
					// Zero-scrub the recycled buffer so a panicked job
					// folds as the zero value, like a fresh slice would.
					bp = bufPool.Get().(*[]R)
					buf = (*bp)[:0]
					var zero R
					for i := lo; i < hi; i++ {
						buf = append(buf, zero)
					}
				}
				for i := lo; i < hi; i++ {
					var dst *R
					if collect {
						dst = &out[i]
					} else {
						dst = &buf[i-lo]
					}
					runJob(clk, scratch, i, dst, &elapsed[c], &panics[c])
				}
				if collect {
					put(scratch)
				} else {
					*bp = buf
					bufs[c] = bp
					scratches[c] = scratch
				}
				done <- c
			}
		}()
	}
	if !collect {
		// Fold chunks in canonical order as they complete; the
		// channel receive orders each chunk's result writes before
		// the fold reads them. The deferred close frees token waiters
		// even if a fold call panics — workers must never outlive the
		// batch.
		func() {
			defer close(quit)
			ready := make([]bool, numChunks)
			nextFold := 0
			for finished := 0; finished < numChunks; finished++ {
				ready[<-done] = true
				for nextFold < numChunks && ready[nextFold] {
					lo, hi := span(nextFold)
					buf := *bufs[nextFold]
					for i := lo; i < hi; i++ {
						fold(i, buf[i-lo])
					}
					put(scratches[nextFold])
					bufPool.Put(bufs[nextFold])
					bufs[nextFold] = nil
					tokens <- struct{}{}
					nextFold++
				}
			}
		}()
	}
	wg.Wait()

	var total time.Duration
	for _, d := range elapsed {
		total += d
	}
	p.clock.Advance(total)
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
	return out
}

// Reduce shards the index range [0, n) into contiguous spans, builds
// one accumulator per span on the pool's workers (init once per span,
// then accum over the span's indices in ascending order), and merges
// the partial accumulators in span order. It is the shard-accumulate-
// merge primitive the inference half of the pipeline parallelizes with.
//
// The result equals the sequential fold
//
//	a := init(); for i := 0..n-1 { a = accum(a, i) }
//
// for any (accum, merge) pair where merging two accumulators built over
// adjacent index ranges equals accumulating over the concatenated range
// — true for set unions, count sums, and first-wins assignments over
// disjoint keys, which is what the analysis passes use. Reduce never
// touches the pool's clock: analysis work consumes no virtual time.
func Reduce[A any](p *Pool, n int, init func() A, accum func(a A, i int) A, merge func(into, from A) A) A {
	if n == 0 {
		return init()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		a, pe := reduceSpan(init, accum, 0, n)
		if pe != nil {
			panic(pe)
		}
		return a
	}
	spans := workers * 4
	if spans > n {
		spans = n
	}
	chunk := (n + spans - 1) / spans
	numSpans := (n + chunk - 1) / chunk
	partial := make([]A, numSpans)
	panics := make([]*JobPanicError, numSpans)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numSpans {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				partial[c], panics[c] = reduceSpan(init, accum, lo, hi)
			}
		}()
	}
	wg.Wait()
	// Re-raise before merging: a panicked span holds a half-built
	// accumulator that merge must never observe. Lowest span (and hence
	// lowest index) wins, matching the sequential failure point.
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
	a := partial[0]
	for _, b := range partial[1:] {
		a = merge(a, b)
	}
	return a
}

// reduceSpan accumulates one contiguous index span, converting a panic
// in init or accum into a *JobPanicError carrying the index being
// folded, so one bad element cannot strand the other Reduce workers.
func reduceSpan[A any](init func() A, accum func(a A, i int) A, lo, hi int) (a A, pe *JobPanicError) {
	cur := lo
	defer func() {
		if v := recover(); v != nil {
			pe = &JobPanicError{Job: cur, Value: v, Stack: debug.Stack()}
		}
	}()
	a = init()
	for cur = lo; cur < hi; cur++ {
		a = accum(a, cur)
	}
	return a, nil
}

// Request describes one probe job in the format both measurement
// engines accept (traceroute.Engine.Traces and FoldTraces,
// ping.Pinger.Outcomes): a traceroute or a ping series from Src toward
// Dst. Engine-specific knobs (probe counts, TTL caps, protocol) live on
// the engine; the request carries only what varies per job.
type Request struct {
	// Src is the vantage-point host address; Dst the probe target.
	Src, Dst netip.Addr
	// TTL, when nonzero, selects the TTL-limited echo mode of the ping
	// engine (the §6.3 trick). Traceroute engines ignore it.
	TTL int
	// Count is the ping-series length. Traceroute engines ignore it.
	Count int
}
