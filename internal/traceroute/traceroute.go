// Package traceroute implements a scamper-style Paris traceroute engine
// over the simulated network. It supports the stock sequential probing
// mode and the parallel consecutive-hop mode the paper added to scamper
// for ShipTraceroute (§7.1.2), which shrinks radio-active time and hence
// energy per round.
package traceroute

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/vclock"
)

// Mode selects the probing schedule.
type Mode uint8

const (
	// Sequential probes one TTL at a time, waiting for each response or
	// timeout before the next probe (stock scamper).
	Sequential Mode = iota
	// Parallel probes a window of consecutive TTLs at once, overlapping
	// the waits for unresponsive hops (the ShipTraceroute modification).
	Parallel
)

// Engine runs traceroutes on a network with a virtual clock.
type Engine struct {
	Net   *netsim.Network
	Clock *vclock.Clock

	// MaxTTL bounds probing (default 32).
	MaxTTL int
	// Attempts per hop before declaring it unresponsive (default 2).
	Attempts int
	// GapLimit stops the trace after this many consecutive unresponsive
	// hops (default 5).
	GapLimit int
	// Timeout is the per-probe response wait (default 1s).
	Timeout time.Duration
	// Mode selects sequential or parallel probing.
	Mode Mode
	// Window is the parallel-mode burst width (default 8).
	Window int
	// Proto is the probe protocol (default ICMP echo).
	Proto netsim.Proto

	// RetryBackoff, when nonzero, adds k*RetryBackoff of extra wait
	// before the k-th retry of a timed-out hop, letting rate-limit and
	// blackout windows pass. Zero (the default) keeps the historical
	// fixed-timeout retry schedule bit-identical.
	RetryBackoff time.Duration
	// ProbeBudget, when nonzero, caps the probes one trace may send;
	// an exhausted trace stops early with Truncated set.
	ProbeBudget int

	// arena is the per-trace hop scratch source, bound by traceWith on
	// the engine's stack copy; never set on a shared Engine.
	arena *hopArena

	// cols, when non-nil, redirects hop rows into a columnar store
	// instead of per-trace []Hop slices; colsLo remembers where this
	// trace's rows begin. Both are bound by traceColumnar on the
	// engine's stack copy, never on a shared Engine.
	cols   *HopStore
	colsLo int

	// path is the storage each trace compiles its flow into: the
	// leased arena's or columnar store's, so a trace allocates nothing
	// for its flow. Bound like arena and cols; nil compiles into fresh
	// storage.
	path *netsim.PathBuf
}

// arenaChunk is the hopArena refill size. At campaign scale most traces
// want a handful of rows (hopCap of an unreachable flow is just
// GapLimit), so one chunk serves hundreds of traces.
const arenaChunk = 2048

// hopArena hands out hop buffers carved from large shared chunks, so a
// campaign of N traces costs ~N/hundreds slice allocations instead of
// N. Regions are disjoint and capacity-clamped (three-index slicing),
// so an append past a trace's estimate falls back to an ordinary copy
// rather than running into the next trace's rows. Arenas recycle
// through a sync.Pool; a chunk stays reachable while any returned
// trace still references it, which is the same retention as per-trace
// allocation.
type hopArena struct {
	buf  []Hop
	path netsim.PathBuf
}

var hopArenas = sync.Pool{New: func() any { return new(hopArena) }}

// take returns an empty hop buffer with capacity n.
func (a *hopArena) take(n int) []Hop {
	if n > arenaChunk {
		return make([]Hop, 0, n)
	}
	if n > len(a.buf) {
		a.buf = make([]Hop, arenaChunk)
	}
	s := a.buf[0:0:n]
	a.buf = a.buf[n:]
	return s
}

// takeHops sizes and carves one trace's hop buffer.
func (e *Engine) takeHops(flow *netsim.Flow) []Hop {
	n := e.hopCap(flow)
	if e.arena == nil {
		return make([]Hop, 0, n)
	}
	return e.arena.take(n)
}

// HopStore is the columnar (struct-of-arrays) hop row store of the
// campaign fast path: instead of one []Hop per trace, every trace in a
// fold chunk appends its rows to one shared store and hands the fold a
// TraceView holding [lo, hi) offsets. The five parallel slices hold
// exactly the Hop fields, so view.Hop(k) reconstructs rows losslessly;
// what changes is the allocation shape — one growing buffer per chunk,
// recycled after the fold, instead of thousands of per-trace slices.
// A HopStore is single-goroutine scratch (one per worker chunk).
type HopStore struct {
	addrs     []netip.Addr
	ttls      []int32
	rtts      []time.Duration
	types     []netsim.ReplyType
	replyTTLs []uint8

	// path is the chunk's flow-compile storage: each trace compiles
	// into it in turn (a trace's flow is dead once the trace returns).
	path netsim.PathBuf
}

// Len reports the number of stored hop rows.
func (s *HopStore) Len() int { return len(s.addrs) }

// Reset truncates the store to empty, keeping capacity for reuse.
func (s *HopStore) Reset() { s.truncate(0) }

// push appends one hop row.
func (s *HopStore) push(h Hop) {
	s.addrs = append(s.addrs, h.Addr)
	s.ttls = append(s.ttls, int32(h.TTL))
	s.rtts = append(s.rtts, h.RTT)
	s.types = append(s.types, h.Type)
	s.replyTTLs = append(s.replyTTLs, h.ReplyTTL)
}

// row reconstructs the k-th stored hop.
func (s *HopStore) row(k int) Hop {
	return Hop{
		TTL:      int(s.ttls[k]),
		Addr:     s.addrs[k],
		RTT:      s.rtts[k],
		Type:     s.types[k],
		ReplyTTL: s.replyTTLs[k],
	}
}

func (s *HopStore) truncate(n int) {
	s.addrs = s.addrs[:n]
	s.ttls = s.ttls[:n]
	s.rtts = s.rtts[:n]
	s.types = s.types[:n]
	s.replyTTLs = s.replyTTLs[:n]
}

// trimReached drops the rows after the destination response in the
// current trace's span [lo, Len) — the columnar form of the
// scamper-style trim traceParallel applies to []Hop output.
func (s *HopStore) trimReached(lo int) {
	for k := lo; k < len(s.types); k++ {
		if s.types[k] == netsim.EchoReply || s.types[k] == netsim.PortUnreachable {
			s.truncate(k + 1)
			return
		}
	}
}

// TraceView is a Trace whose hop rows live in a HopStore span instead
// of an owned Hops slice. The embedded Trace carries every scalar field
// (ledger, Reached, ActiveTime, ...) with Hops nil; rows are read
// through Hop/HopResponded. A view is only valid until its chunk's
// store is recycled — campaign folds consume views immediately and
// keep only what they extract, which is the whole point.
type TraceView struct {
	Trace
	store  *HopStore
	lo, hi int
}

// NumHops reports the trace's hop row count.
func (v *TraceView) NumHops() int { return v.hi - v.lo }

// Hop reconstructs the trace's k-th hop row.
func (v *TraceView) Hop(k int) Hop { return v.store.row(v.lo + k) }

// HopResponded reports whether the k-th hop produced any answer,
// without materializing the row.
func (v *TraceView) HopResponded(k int) bool {
	return v.store.types[v.lo+k] != netsim.Timeout
}

// Hop is one row of traceroute output.
type Hop struct {
	TTL int
	// Addr is the responding address; an invalid Addr renders as "*".
	Addr netip.Addr
	RTT  time.Duration
	Type netsim.ReplyType
	// ReplyTTL is the remaining TTL on the response (Appendix C uses
	// it to reason about return paths).
	ReplyTTL uint8
}

// Responded reports whether the hop produced any answer.
func (h Hop) Responded() bool { return h.Type != netsim.Timeout }

// Trace is one completed traceroute.
type Trace struct {
	Src, Dst netip.Addr
	FlowID   uint16
	Hops     []Hop
	// Reached is true when the destination itself answered.
	Reached bool
	// Probes counts packets sent, and ActiveTime accumulates the time
	// the prober spent waiting with the radio up — the two inputs to
	// the Fig. 14 energy model.
	Probes     int
	ActiveTime time.Duration

	// Typed outcome ledger: every probe sent lands in exactly one of
	// Replied / Lost / RateLimited, so Probes == Replied + Lost +
	// RateLimited always holds. Retries counts retransmissions within
	// Probes, and Truncated marks a trace stopped by ProbeBudget.
	Replied     int
	Lost        int
	RateLimited int
	Retries     int
	Truncated   bool
}

// Stats exports the trace's outcome ledger for campaign accounting.
func (t *Trace) Stats() probesched.ProbeStats {
	return probesched.ProbeStats{
		Sent:        t.Probes,
		Replied:     t.Replied,
		Lost:        t.Lost,
		RateLimited: t.RateLimited,
		Retries:     t.Retries,
	}
}

// observe files one reply into the trace's outcome ledger.
func (t *Trace) observe(r netsim.Reply, retry bool) {
	switch r.Outcome() {
	case netsim.OutcomeReply:
		t.Replied++
	case netsim.OutcomeRateLimited:
		t.RateLimited++
	default:
		t.Lost++
	}
	if retry {
		t.Retries++
	}
}

// ResponsiveHops returns the hops that answered, in TTL order.
func (t *Trace) ResponsiveHops() []Hop {
	var out []Hop
	for _, h := range t.Hops {
		if h.Responded() {
			out = append(out, h)
		}
	}
	return out
}

// LastResponsive returns the highest-TTL responsive hop, if any.
func (t *Trace) LastResponsive() (Hop, bool) {
	for i := len(t.Hops) - 1; i >= 0; i-- {
		if t.Hops[i].Responded() {
			return t.Hops[i], true
		}
	}
	return Hop{}, false
}

func (e *Engine) defaults() {
	if e.MaxTTL == 0 {
		e.MaxTTL = 32
	}
	if e.Attempts == 0 {
		e.Attempts = 2
	}
	if e.GapLimit == 0 {
		e.GapLimit = 5
	}
	if e.Timeout == 0 {
		e.Timeout = time.Second
	}
	if e.Window == 0 {
		e.Window = 8
	}
}

// hopCap sizes a trace's hop buffer from the compiled flow: a fully
// responsive trace stops at the destination's hop count, and an
// unresponsive tail adds at most GapLimit rows before the trace aborts.
// Random mid-path losses can still exceed the estimate; append just
// grows then.
func (e *Engine) hopCap(flow *netsim.Flow) int {
	est := flow.HopsToDst() + e.GapLimit
	if est > e.MaxTTL {
		est = e.MaxTTL
	}
	return est
}

// flowID derives the Paris flow identifier from the destination, so
// every probe of one trace rides the same ECMP path while different
// destinations may diverge.
func flowID(src, dst netip.Addr) uint16 {
	b := dst.As16()
	s := src.As16()
	var h uint32 = 2166136261
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	for _, x := range s {
		h = (h ^ uint32(x)) * 16777619
	}
	return uint16(h)
}

// Trace runs one traceroute from src (a registered vantage-point host)
// toward dst. The engine's configuration is treated as read-only (the
// defaults are applied to a stack copy), so one Engine may serve
// concurrent traceroutes as long as each carries its own clock — which
// is how the probe scheduler drives it.
func (e *Engine) Trace(src, dst netip.Addr) Trace {
	return e.traceWith(e.Clock, src, dst)
}

// traceWith runs one traceroute on the supplied clock. The defaulted
// configuration copy stays on this frame (nothing returns a pointer to
// it), so the per-job engine binding costs no allocation.
func (e *Engine) traceWith(clk *vclock.Clock, src, dst netip.Addr) Trace {
	cfg := *e
	cfg.Clock = clk
	cfg.defaults()
	cfg.arena = hopArenas.Get().(*hopArena)
	defer hopArenas.Put(cfg.arena)
	cfg.path = &cfg.arena.path
	if cfg.Mode == Parallel {
		return cfg.traceParallel(src, dst)
	}
	return cfg.traceSequential(src, dst)
}

// pushHop files one finished hop row: into the columnar store when the
// engine runs on the fold fast path, else onto the trace's own slice.
func (e *Engine) pushHop(tr *Trace, h Hop) {
	if e.cols != nil {
		e.cols.push(h)
		return
	}
	tr.Hops = append(tr.Hops, h)
}

// traceColumnar runs one traceroute whose hop rows land in store,
// returning a view over the rows it appended. Probing order, sequence
// numbers, and clock advances are identical to traceWith — only where
// the rows live changes — so columnar campaigns stay bit-identical.
func (e *Engine) traceColumnar(clk *vclock.Clock, store *HopStore, src, dst netip.Addr) TraceView {
	cfg := *e
	cfg.Clock = clk
	cfg.defaults()
	cfg.cols = store
	cfg.colsLo = store.Len()
	cfg.path = &store.path
	var tr Trace
	if cfg.Mode == Parallel {
		tr = cfg.traceParallel(src, dst)
	} else {
		tr = cfg.traceSequential(src, dst)
	}
	return TraceView{Trace: tr, store: store, lo: cfg.colsLo, hi: store.Len()}
}

// hopStores recycles columnar stores across fold chunks; a store grows
// to its chunk's row count once and is then reused at full capacity.
var hopStores = sync.Pool{New: func() any { return new(HopStore) }}

// FoldTraces runs one traceroute per request across the pool and
// streams the traces, in request order, to fold while later requests
// are still probing. Each worker chunk leases one pooled columnar
// HopStore, every trace in the chunk appends its rows there, and fold
// receives TraceViews. The store is reset and repooled only after its
// chunk has been folded (probesched.MapFold's scratch lifecycle), so
// views stay valid exactly as long as the fold can see them — a fold
// that keeps hops past its return must copy them. Campaign collection
// uses this to overlap folding with in-flight probing without the
// per-trace []Hop and result-slice allocations.
func (e *Engine) FoldTraces(pool *probesched.Pool, reqs []probesched.Request, fold func(i int, tv TraceView)) {
	probesched.MapFold(pool, reqs,
		func() *HopStore { return hopStores.Get().(*HopStore) },
		func(s *HopStore) { s.Reset(); hopStores.Put(s) },
		func(clk *vclock.Clock, s *HopStore, req probesched.Request) TraceView {
			return e.traceColumnar(clk, s, req.Src, req.Dst)
		}, fold)
}

// ApplyResilience overlays a resilience policy on the engine: a
// positive Attempts overrides the per-hop attempt count, and the
// retry backoff and trace budget are installed as given. The zero
// policy is a no-op, keeping default engines bit-identical to their
// historical behavior.
func (e *Engine) ApplyResilience(r probesched.Resilience) {
	if r.Attempts > 0 {
		e.Attempts = r.Attempts
	}
	if r.RetryBackoff > 0 {
		e.RetryBackoff = r.RetryBackoff
	}
	if r.TraceBudget > 0 {
		e.ProbeBudget = r.TraceBudget
	}
}

// Traces runs one traceroute per request across the pool and returns
// the traces in request order, with probesched.Map's clock semantics.
func (e *Engine) Traces(pool *probesched.Pool, reqs []probesched.Request) []Trace {
	return probesched.Map(pool, reqs, func(clk *vclock.Clock, req probesched.Request) Trace {
		return e.traceWith(clk, req.Src, req.Dst)
	})
}

func (e *Engine) traceSequential(src, dst netip.Addr) Trace {
	tr := Trace{Src: src, Dst: dst, FlowID: flowID(src, dst)}
	// Resolve the flow's forwarding path once; every TTL below replays
	// it instead of re-resolving per probe.
	flow := e.Net.CompileFlowInto(e.path, src, dst, tr.FlowID)
	if e.cols == nil {
		tr.Hops = e.takeHops(&flow)
	}
	silent := flow.Silent()
	gap := 0
	var seq uint32
	for ttl := 1; ttl <= e.MaxTTL; ttl++ {
		if e.ProbeBudget > 0 && tr.Probes >= e.ProbeBudget {
			tr.Truncated = true
			break
		}
		hop := Hop{TTL: ttl}
		for att := 0; att < e.Attempts; att++ {
			// Budget can only trip on a retry here: the TTL-loop check
			// above covers attempt 0, so no zero-probe hop rows appear.
			if att > 0 && e.ProbeBudget > 0 && tr.Probes >= e.ProbeBudget {
				tr.Truncated = true
				break
			}
			seq++
			var r netsim.Reply // a silent flow's every reply
			if !silent {
				r = flow.Probe(e.Clock.Now(), uint8(ttl), e.Proto, seq)
			}
			tr.Probes++
			tr.observe(r, att > 0)
			if r.Type == netsim.Timeout {
				wait := e.Timeout
				if e.RetryBackoff > 0 && att+1 < e.Attempts {
					wait += time.Duration(att+1) * e.RetryBackoff
				}
				e.Clock.Advance(wait)
				tr.ActiveTime += wait
				continue
			}
			e.Clock.Advance(r.RTT)
			tr.ActiveTime += r.RTT
			hop.Addr = r.From
			hop.RTT = r.RTT
			hop.Type = r.Type
			hop.ReplyTTL = r.ReplyTTL
			break
		}
		e.pushHop(&tr, hop)
		if hop.Responded() {
			gap = 0
			if hop.Type == netsim.EchoReply || hop.Type == netsim.PortUnreachable {
				tr.Reached = true
				break
			}
		} else {
			gap++
			if gap >= e.GapLimit {
				break
			}
		}
	}
	return tr
}

// traceParallel sends Window consecutive TTLs per burst; the burst wait
// is the maximum individual wait rather than the sum, which is where the
// energy saving comes from.
func (e *Engine) traceParallel(src, dst netip.Addr) Trace {
	tr := Trace{Src: src, Dst: dst, FlowID: flowID(src, dst)}
	flow := e.Net.CompileFlowInto(e.path, src, dst, tr.FlowID)
	if e.cols == nil {
		tr.Hops = e.takeHops(&flow)
	}
	silent := flow.Silent()
	// burstHops is scratch for the in-flight burst, reused across
	// bursts; rows are copied into tr.Hops before the next reset.
	burstHops := make([]Hop, 0, e.Window)
	var seq uint32
	gap := 0
	for base := 1; base <= e.MaxTTL; base += e.Window {
		var burstWait time.Duration
		burstHops = burstHops[:0]
		done := false
		for off := 0; off < e.Window; off++ {
			ttl := base + off
			if ttl > e.MaxTTL {
				break
			}
			if e.ProbeBudget > 0 && tr.Probes >= e.ProbeBudget {
				tr.Truncated = true
				done = true
				break
			}
			hop := Hop{TTL: ttl}
			for att := 0; att < e.Attempts; att++ {
				if att > 0 && e.ProbeBudget > 0 && tr.Probes >= e.ProbeBudget {
					tr.Truncated = true
					break
				}
				seq++
				var r netsim.Reply // a silent flow's every reply
				if !silent {
					r = flow.Probe(e.Clock.Now(), uint8(ttl), e.Proto, seq)
				}
				tr.Probes++
				tr.observe(r, att > 0)
				if r.Type == netsim.Timeout {
					wait := e.Timeout
					if e.RetryBackoff > 0 && att+1 < e.Attempts {
						wait += time.Duration(att+1) * e.RetryBackoff
					}
					if wait > burstWait {
						burstWait = wait
					}
					continue
				}
				if r.RTT > burstWait {
					burstWait = r.RTT
				}
				hop.Addr = r.From
				hop.RTT = r.RTT
				hop.Type = r.Type
				hop.ReplyTTL = r.ReplyTTL
				break
			}
			burstHops = append(burstHops, hop)
			if hop.Type == netsim.EchoReply || hop.Type == netsim.PortUnreachable {
				done = true
				break
			}
		}
		e.Clock.Advance(burstWait)
		tr.ActiveTime += burstWait
		for _, h := range burstHops {
			e.pushHop(&tr, h)
			if h.Responded() {
				gap = 0
				if h.Type == netsim.EchoReply || h.Type == netsim.PortUnreachable {
					tr.Reached = true
				}
			} else {
				gap++
			}
		}
		if done || tr.Reached || gap >= e.GapLimit {
			break
		}
	}
	// Trim the trace after the destination response, mirroring scamper
	// output.
	if e.cols != nil {
		e.cols.trimReached(e.colsLo)
	} else {
		for i, h := range tr.Hops {
			if h.Type == netsim.EchoReply || h.Type == netsim.PortUnreachable {
				tr.Hops = tr.Hops[:i+1]
				break
			}
		}
	}
	return tr
}
