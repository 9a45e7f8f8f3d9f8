package comap

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/probesched"
	"repro/internal/traceroute"
)

// The path archive. Every kept path's addresses are interned once, at
// the in-order collection fold, into the Collection's dense AddrID
// table, and the archive itself is a sequence of columnar windows
// (traceroute.SymWindow: endpoint, hop and gap columns of IDs). A
// resident campaign keeps its windows in memory; a windowed campaign
// (TraceWindow > 0) encodes each kept trace into a segment log instead
// and every pass replays the log into the same window form. Both
// shapes therefore feed the passes identical Path values, which is why
// the golden digests are bit-identical at any window size.
//
// IDs are assigned in first-seen order over each kept path's source,
// destination and responsive hops, in fold order — exactly the order
// the segment log requires of its log-global symbols, so the fold
// hands the writer the IDs it just assigned instead of having it
// intern every hop again. A replayed window's symbols are therefore
// AddrIDs as they stand; the replay checks that the log's symbol table
// matches the Collection's instead of translating hop by hop.

// AddrID is a dense per-Collection address identifier: the index of
// the address in the Collection's first-seen table (see
// Collection.Addr). It is a plain uint32 so replayed segment windows
// carry IDs without a copy.
type AddrID = uint32

// Per-ID flags set at the collection fold.
const (
	// flagObserved: the address answered as a hop of some kept path.
	flagObserved uint8 = 1 << iota
	// flagInterior: the address answered at an interior position of
	// some kept path — any hop, except the last of a path that reached
	// its destination (which may be a host, not a router).
	flagInterior
)

// residentWindow is the path capacity of one resident archive window.
// Windows are also cut at stage boundaries, like sealed segments.
const residentWindow = 1 << 14

// Addr returns the address an AddrID stands for.
func (c *Collection) Addr(id AddrID) netip.Addr { return c.addrs[id] }

// NumAddrs reports the size of the AddrID table.
func (c *Collection) NumAddrs() int { return len(c.addrs) }

// NumPaths reports the archive size in paths.
func (c *Collection) NumPaths() int { return c.nPaths }

// intern returns a's AddrID, assigning the next one on first sight.
func (c *Collection) intern(a netip.Addr) AddrID {
	if id, ok := c.ids[a]; ok {
		return id
	}
	id := AddrID(len(c.addrs))
	if c.ids == nil {
		c.ids = map[netip.Addr]AddrID{}
	}
	c.ids[a] = id
	c.addrs = append(c.addrs, a)
	c.flags = append(c.flags, 0)
	return id
}

// idOf looks a's AddrID up without assigning one.
func (c *Collection) idOf(a netip.Addr) (AddrID, bool) {
	id, ok := c.ids[a]
	return id, ok
}

// keep files one kept path: it interns the path's source, destination
// and responsive hops (in that order), sets their per-ID flags, and,
// when the archive is resident, appends the path to the open window.
// hops are the responsive hops in TTL order; gaps[k] reports that
// unresponsive hops preceded hops[k]. It returns the source and
// destination IDs and the hops' IDs, written over ids' storage — what
// the spill log's writer takes as the trace's symbols. Only the
// collection fold (and the test constructor) calls keep, always on one
// goroutine.
func (c *Collection) keep(stage string, src, dst netip.Addr, reached bool, hops []netip.Addr, gaps []bool, ids []AddrID) (AddrID, AddrID, []AddrID) {
	s, d := c.intern(src), c.intern(dst)
	end := len(hops)
	if reached {
		end--
	}
	ids = ids[:0]
	for k, h := range hops {
		id := c.intern(h)
		c.flags[id] |= flagObserved
		if k < end {
			c.flags[id] |= flagInterior
		}
		ids = append(ids, id)
	}
	if c.spill == nil {
		w := c.openWindow(stage)
		w.Src = append(w.Src, s)
		w.Dst = append(w.Dst, d)
		w.Reached = append(w.Reached, reached)
		w.Hops = append(w.Hops, ids...)
		w.Gaps = append(w.Gaps, gaps...)
		w.Ends = append(w.Ends, int32(len(w.Hops)))
	}
	c.nPaths++
	return s, d, ids
}

// openWindow returns the resident window the next path of stage goes
// into, opening a new one at a stage change or when the last is full.
func (c *Collection) openWindow(stage string) *traceroute.SymWindow {
	if n := len(c.windows); n > 0 {
		w := c.windows[n-1]
		if w.Stage == stage && w.Len() < residentWindow {
			return w
		}
	}
	w := &traceroute.SymWindow{Stage: stage}
	c.windows = append(c.windows, w)
	return w
}

// Observed lists every responsive hop address seen, in first-seen
// order.
func (c *Collection) Observed() []netip.Addr {
	var out []netip.Addr
	c.eachObserved(func(a netip.Addr) { out = append(out, a) })
	return out
}

// NumObserved reports how many distinct addresses answered as hops.
func (c *Collection) NumObserved() int {
	n := 0
	for _, f := range c.flags {
		if f&flagObserved != 0 {
			n++
		}
	}
	return n
}

// eachObserved visits the Observed addresses in first-seen order.
func (c *Collection) eachObserved(fn func(a netip.Addr)) {
	for id, f := range c.flags {
		if f&flagObserved != 0 {
			fn(c.addrs[id])
		}
	}
}

// pathAt returns trace j of w as a Path over the window's columns.
func pathAt(w *traceroute.SymWindow, j int) Path {
	lo := 0
	if j > 0 {
		lo = int(w.Ends[j-1])
	}
	hi := int(w.Ends[j])
	return Path{
		Src: w.Src[j], Dst: w.Dst[j], Reached: w.Reached[j],
		Hops: w.Hops[lo:hi:hi],
		Gaps: w.Gaps[lo:hi:hi],
	}
}

// spillArchive is the on-disk form of a Collection's path archive.
type spillArchive struct {
	logPath string
	// dir is removed on Close when the archive created it (the default
	// SpillDir="" case); a caller-provided directory is left alone.
	dir     string
	ownsDir bool
}

// newSpillArchive places the segment log in dir, or in a fresh
// .spill-* directory under the working directory when dir is empty.
// name is the log's file name: campaigns derive it from the ISP under
// study, so two campaigns sharing one caller-provided SpillDir (the
// cable study probes comcast and charter back to back) never clobber
// each other's logs — which matters once durable logs outlive the
// process that wrote them.
func newSpillArchive(dir, name string) (*spillArchive, error) {
	sp := &spillArchive{dir: dir}
	if sp.dir == "" {
		d, err := os.MkdirTemp(".", ".spill-")
		if err != nil {
			return nil, err
		}
		sp.dir, sp.ownsDir = d, true
	}
	sp.logPath = filepath.Join(sp.dir, name)
	return sp, nil
}

// Close removes the spill log (and the directory, when owned). A
// durable log's checkpoint records go with it: Close means the
// campaign was consumed, so the crash-recovery state is garbage.
func (sp *spillArchive) Close() error {
	if sp == nil {
		return nil
	}
	if sp.ownsDir {
		return os.RemoveAll(sp.dir)
	}
	return os.Remove(sp.logPath)
}

// windowPairs recycles the two decode buffers a replay alternates
// between; capacities carry across replays, so a full-archive replay
// allocates only on high-water-mark growth.
var windowPairs = sync.Pool{New: func() any { return new([2]traceroute.SymWindow) }}

// decoded is one replayed window handed from the decoder goroutine to
// the folding one, or the error that ended the decode.
type decoded struct {
	w   *traceroute.SymWindow
	err error
}

// replay streams the log's windows through fn in log order; base is
// the global index of the window's first path. Window k+1 is decoded on
// a second goroutine while fn folds window k, so decoding leaves the
// critical path. A window is valid only during its callback (the two
// buffers alternate).
//
// Decode failures panic: the log was written by this process moments
// ago, so a bad frame is a programming error or disk fault, not an
// input condition the pipeline can recover from.
func (c *Collection) replay(fn func(base int, w *traceroute.SymWindow)) {
	r, err := traceroute.OpenSegmentLog(c.spill.logPath)
	if err != nil {
		panic(fmt.Errorf("comap: replaying spill archive: %w", err))
	}
	bufs := windowPairs.Get().(*[2]traceroute.SymWindow)
	// free holds the buffers the decoder may fill next: one slot per
	// buffer, so returning one never blocks.
	free := make(chan *traceroute.SymWindow, len(bufs))
	free <- &bufs[0]
	free <- &bufs[1]
	out := make(chan decoded)
	go func() {
		defer close(out)
		checked := 0
		for w := range free {
			ok, err := r.NextSyms(w)
			if err == nil && ok {
				checked, err = c.checkSyms(r.Addrs(), checked)
			}
			if err != nil {
				out <- decoded{err: err}
				return
			}
			if !ok {
				return
			}
			out <- decoded{w: w}
		}
	}()
	defer func() {
		// Stop the decoder (it drains what is left in free) and wait
		// for it before the mapping goes away, also when fn panics.
		close(free)
		for range out {
		}
		r.Close()
		windowPairs.Put(bufs)
	}()
	base := 0
	for d := range out {
		if d.err != nil {
			panic(fmt.Errorf("comap: replaying spill archive: %w", d.err))
		}
		fn(base, d.w)
		base += d.w.Len()
		free <- d.w
	}
	if base != c.nPaths {
		panic(fmt.Sprintf("comap: spill archive replayed %d paths, recorded %d", base, c.nPaths))
	}
}

// checkSyms verifies that the log's symbol table, from symbol from on,
// is the Collection's AddrID table, and returns the new high-water
// mark. Both tables assign IDs in the same first-seen order, so a
// mismatch means the log is not this Collection's.
func (c *Collection) checkSyms(syms []netip.Addr, from int) (int, error) {
	if len(syms) > len(c.addrs) {
		return from, fmt.Errorf("log has %d address symbols, collection %d", len(syms), len(c.addrs))
	}
	for s := from; s < len(syms); s++ {
		if syms[s] != c.addrs[s] {
			return from, fmt.Errorf("log symbol %d is %s, collection AddrID %d is %s", s, syms[s], s, c.addrs[s])
		}
	}
	return len(syms), nil
}

// eachWindow visits the archive's windows in order with the global
// index of each window's first path: the resident windows as they
// stand, or the spill log replayed (see replay for the window
// lifetime).
func (c *Collection) eachWindow(fn func(base int, w *traceroute.SymWindow)) {
	if c.spill != nil {
		c.replay(fn)
		return
	}
	base := 0
	for _, w := range c.windows {
		fn(base, w)
		base += w.Len()
	}
}

// EachPath visits every collected path in canonical (submission) order
// with its global index and collection stage. Path values — their Hops
// and Gaps slices — are valid only during the callback.
func (c *Collection) EachPath(fn func(i int, p Path, stage string)) {
	c.eachWindow(func(base int, w *traceroute.SymWindow) {
		for j := 0; j < w.Len(); j++ {
			fn(base+j, pathAt(w, j), w.Stage)
		}
	})
}

// Close releases the collection's spill files, if any. Resident
// collections need no cleanup; Close is idempotent.
func (c *Collection) Close() error {
	sp := c.spill
	c.spill = nil
	return sp.Close()
}

// foldPaths is the inference passes' shard-accumulate-merge over the
// archive: the same (init, accum, merge) contract as probesched.Reduce,
// with accum handed the path and stage directly.
//
// Each window (resident or replayed) is reduced across the pool's
// workers and the window accumulators are merged in window order.
// Windows partition the global index range contiguously and in order —
// the shard structure Reduce itself builds — so for the
// concatenation-homomorphic (accum, merge) pairs the passes use, the
// result is identical for any window size and worker count.
func foldPaths[A any](pool *probesched.Pool, col *Collection, init func() A,
	accum func(a A, i int, p Path, stage string) A,
	merge func(into, from A) A) A {
	var acc A
	first := true
	col.eachWindow(func(base int, w *traceroute.SymWindow) {
		part := probesched.Reduce(pool, w.Len(), init,
			func(a A, j int) A { return accum(a, base+j, pathAt(w, j), w.Stage) },
			merge)
		if first {
			acc, first = part, false
		} else {
			acc = merge(acc, part)
		}
	})
	if first {
		return init()
	}
	return acc
}
