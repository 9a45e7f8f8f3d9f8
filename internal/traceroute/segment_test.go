package traceroute

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/segfault"
	"repro/internal/symtab"
)

// TestNonMmapFallbackSeam replays a log through the buffered
// readSegmentFile path on every platform (segio_other.go is otherwise
// unreachable under a unix build) and checks it matches the mapped
// replay byte for byte.
func TestNonMmapFallbackSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var store HopStore
	views := randomTraces(rng, &store, 12)
	path := filepath.Join(t.TempDir(), "traces.seg")
	writeLog(t, path, []string{"sweep", "direct"}, [][]TraceView{views[:7], views[7:]})
	mapped := replayLog(t, path)

	orig := mapSegment
	mapSegment = readSegmentFile
	defer func() { mapSegment = orig }()
	buffered := replayLog(t, path)
	if len(buffered) != len(mapped) {
		t.Fatalf("fallback replayed %d traces, mapped replayed %d", len(buffered), len(mapped))
	}
	for i := range mapped {
		if buffered[i] != mapped[i] {
			t.Fatalf("trace %d differs between mmap and fallback:\n %s\n %s", i, mapped[i], buffered[i])
		}
	}
}

// TestOpenReleasesMappingOnHeaderError pins the open-path cleanup
// contract: when header validation rejects a log, the mapping's release
// closure must have run exactly once before OpenSegmentLog returns.
func TestOpenReleasesMappingOnHeaderError(t *testing.T) {
	for name, mut := range map[string]func([]byte) []byte{
		"short-header": func(b []byte) []byte { return b[:5] },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version": func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], 99)
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			data := mut(validLogBytes(t))
			path := filepath.Join(t.TempDir(), "bad.seg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			released := 0
			orig := mapSegment
			mapSegment = func(p string) ([]byte, func() error, error) {
				d, _, err := readSegmentFile(p)
				return d, func() error { released++; return nil }, err
			}
			defer func() { mapSegment = orig }()
			r, err := OpenSegmentLog(path)
			if err == nil {
				r.Close()
				t.Fatal("damaged header accepted")
			}
			if released != 1 {
				t.Fatalf("release closure ran %d times, want 1", released)
			}
		})
	}
}

// randomTraces builds n traces with hop rows in one shared store,
// exercising v4/v6 addresses, unresponsive hops, zero-hop traces, and
// every scalar field.
func randomTraces(rng *rand.Rand, store *HopStore, n int) []TraceView {
	views := make([]TraceView, 0, n)
	randAddr := func() netip.Addr {
		if rng.Intn(8) == 0 {
			var b [16]byte
			rng.Read(b[:])
			return netip.AddrFrom16(b)
		}
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	for i := 0; i < n; i++ {
		tr := Trace{
			Src:         randAddr(),
			Dst:         randAddr(),
			FlowID:      uint16(rng.Intn(1 << 16)),
			Reached:     rng.Intn(2) == 0,
			Probes:      rng.Intn(64),
			ActiveTime:  time.Duration(rng.Int63n(int64(time.Minute))),
			Replied:     rng.Intn(32),
			Lost:        rng.Intn(8),
			RateLimited: rng.Intn(4),
			Retries:     rng.Intn(4),
			Truncated:   rng.Intn(8) == 0,
		}
		lo := store.Len()
		numHops := rng.Intn(12)
		if i == 0 {
			numHops = 0 // always cover the zero-hop edge
		}
		if i == 1 {
			numHops = 1 // and the single-hop edge
		}
		for k := 0; k < numHops; k++ {
			h := Hop{
				TTL:      k + 1,
				RTT:      time.Duration(rng.Int63n(int64(200 * time.Millisecond))),
				Type:     netsim.ReplyType(rng.Intn(4)),
				ReplyTTL: uint8(rng.Intn(256)),
			}
			if h.Type != netsim.Timeout {
				h.Addr = randAddr()
			}
			store.push(h)
		}
		views = append(views, TraceView{Trace: tr, store: store, lo: lo, hi: store.Len()})
	}
	return views
}

// fingerprint renders a view into a comparable string covering every
// encoded field.
func fingerprint(stage string, tv TraceView) string {
	s := fmt.Sprintf("stage=%s %s>%s flow=%d reached=%v probes=%d act=%d replied=%d lost=%d rl=%d retries=%d trunc=%v hops=",
		stage, tv.Src, tv.Dst, tv.FlowID, tv.Reached, tv.Probes, tv.ActiveTime, tv.Replied, tv.Lost, tv.RateLimited, tv.Retries, tv.Truncated)
	for k := 0; k < tv.NumHops(); k++ {
		h := tv.Hop(k)
		s += fmt.Sprintf("[%d %s %d %d %d]", h.TTL, h.Addr, h.RTT, h.Type, h.ReplyTTL)
	}
	return s
}

// logSyms assigns a log's address symbols the way a campaign's
// address table assigns its IDs — first-seen over each appended
// trace's source, destination and responsive hops — and passes them to
// Append.
type logSyms struct {
	ids  map[netip.Addr]uint32
	hops []uint32
}

// logSymsOf returns the symbol table of the log at path, for appending
// to it after a resume.
func logSymsOf(t *testing.T, path string) *logSyms {
	t.Helper()
	r, err := OpenSegmentLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var w SymWindow
	for {
		ok, err := r.NextSyms(&w)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	l := &logSyms{}
	for _, a := range r.Addrs() {
		l.sym(a)
	}
	return l
}

func (l *logSyms) sym(a netip.Addr) uint32 {
	if l.ids == nil {
		l.ids = map[netip.Addr]uint32{}
	}
	id, ok := l.ids[a]
	if !ok {
		id = uint32(len(l.ids))
		l.ids[a] = id
	}
	return id
}

func (l *logSyms) append(w *SegmentWriter, stage string, tv TraceView) error {
	src, dst := l.sym(tv.Src), l.sym(tv.Dst)
	l.hops = l.hops[:0]
	for k := 0; k < tv.NumHops(); k++ {
		if tv.HopResponded(k) {
			l.hops = append(l.hops, l.sym(tv.Hop(k).Addr))
		}
	}
	return w.Append(stage, tv, src, dst, l.hops)
}

func writeLog(t *testing.T, path string, stages []string, perStage [][]TraceView) {
	t.Helper()
	w, err := CreateSegmentLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var syms logSyms
	for i, stage := range stages {
		for _, tv := range perStage[i] {
			if err := syms.append(w, stage, tv); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayLog(t *testing.T, path string) []string {
	t.Helper()
	r, err := OpenSegmentLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []string
	var seg Segment
	for {
		ok, err := r.Next(&seg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < seg.NumTraces(); i++ {
			tv := seg.View(i)
			got = append(got, fingerprint(seg.Stage, tv))
		}
	}
	return got
}

func TestSegmentRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var store HopStore
			stages := []string{"sweep", "direct", "mpls"}
			perStage := make([][]TraceView, len(stages))
			var want []string
			for i, stage := range stages {
				n := rng.Intn(40)
				if i == 1 && seed == 0 {
					n = 0 // empty-window edge: Seal of nothing is a no-op
				}
				perStage[i] = randomTraces(rng, &store, n)
				for _, tv := range perStage[i] {
					want = append(want, fingerprint(stage, tv))
				}
			}
			path := filepath.Join(t.TempDir(), "traces.seg")
			writeLog(t, path, stages, perStage)
			got := replayLog(t, path)
			if len(got) != len(want) {
				t.Fatalf("replayed %d traces, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace %d mismatch:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestNextSymsMatchesNext holds the Hop-free symbol decode to the full
// decode: on random multi-stage logs, every trace's endpoints and
// responsive hops resolve through Addrs to exactly the addresses Next
// yields, with a gap flag wherever unresponsive rows preceded a hop,
// and the symbol table is the log's first-seen order of endpoints and
// responsive hops.
func TestNextSymsMatchesNext(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var store HopStore
		stages := []string{"sweep", "direct", "mpls"}
		perStage := make([][]TraceView, len(stages))
		var want []string
		var firstSeen []netip.Addr
		seen := map[netip.Addr]bool{}
		note := func(a netip.Addr) {
			if !seen[a] {
				seen[a] = true
				firstSeen = append(firstSeen, a)
			}
		}
		for i, stage := range stages {
			perStage[i] = randomTraces(rng, &store, 1+rng.Intn(40))
			for _, tv := range perStage[i] {
				note(tv.Src)
				note(tv.Dst)
				line := fmt.Sprintf("%s %s>%s %v:", stage, tv.Src, tv.Dst, tv.Reached)
				gap := false
				for k := 0; k < tv.NumHops(); k++ {
					if !tv.HopResponded(k) {
						gap = true
						continue
					}
					note(tv.Hop(k).Addr)
					line += fmt.Sprintf(" %s/%v", tv.Hop(k).Addr, gap)
					gap = false
				}
				want = append(want, line)
			}
		}
		path := filepath.Join(t.TempDir(), "traces.seg")
		writeLog(t, path, stages, perStage)
		r, err := OpenSegmentLog(path)
		if err != nil {
			t.Fatal(err)
		}
		var w SymWindow
		var got []string
		for {
			ok, err := r.NextSyms(&w)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			addrs := r.Addrs()
			lo := int32(0)
			for i := 0; i < w.Len(); i++ {
				line := fmt.Sprintf("%s %s>%s %v:", w.Stage, addrs[w.Src[i]], addrs[w.Dst[i]], w.Reached[i])
				for k := lo; k < w.Ends[i]; k++ {
					line += fmt.Sprintf(" %s/%v", addrs[w.Hops[k]], w.Gaps[k])
				}
				lo = w.Ends[i]
				got = append(got, line)
			}
		}
		if fmt.Sprint(r.Addrs()) != fmt.Sprint(firstSeen) {
			t.Errorf("seed %d: symbol table is not the first-seen order", seed)
		}
		r.Close()
		if len(got) != len(want) {
			t.Fatalf("seed %d: NextSyms yielded %d traces, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d trace %d:\n got %s\nwant %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestSegmentAppendRejectsSymbolGap checks that Append refuses a symbol
// new to the log that is not the next unused one, and a symbol list
// that does not match the trace's responsive hops: the address delta
// is written in symbol order, so either would make the log undecodable.
func TestSegmentAppendRejectsSymbolGap(t *testing.T) {
	var store HopStore
	store.push(Hop{TTL: 1, Addr: netip.MustParseAddr("10.0.0.1"), Type: netsim.TTLExceeded})
	tv := TraceView{Trace: Trace{Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("192.0.2.2")}, store: &store, lo: 0, hi: 1}
	for _, tc := range []struct {
		name     string
		src, dst uint32
		hops     []uint32
	}{
		{"gap", 0, 2, []uint32{1}},
		{"missing hop symbol", 0, 1, nil},
		{"extra hop symbol", 0, 1, []uint32{2, 3}},
	} {
		w, err := CreateSegmentLog(filepath.Join(t.TempDir(), "traces.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append("sweep", tv, tc.src, tc.dst, tc.hops); err == nil {
			t.Errorf("%s: Append accepted symbols %d, %d, %v", tc.name, tc.src, tc.dst, tc.hops)
		}
		w.Close()
	}
}

// TestSegmentStageChangeSeals checks that Append auto-seals on a stage
// boundary, producing one single-stage segment per stage.
func TestSegmentStageChangeSeals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var store HopStore
	views := randomTraces(rng, &store, 6)
	path := filepath.Join(t.TempDir(), "traces.seg")
	w, err := CreateSegmentLog(path)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"a", "a", "b", "b", "b", "c"}
	var syms logSyms
	for i, tv := range views {
		if err := syms.append(w, stages[i], tv); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegmentLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var seg Segment
	var gotStages []string
	var gotCounts []int
	for {
		ok, err := r.Next(&seg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		gotStages = append(gotStages, seg.Stage)
		gotCounts = append(gotCounts, seg.NumTraces())
	}
	wantStages := []string{"a", "b", "c"}
	wantCounts := []int{2, 3, 1}
	if fmt.Sprint(gotStages) != fmt.Sprint(wantStages) || fmt.Sprint(gotCounts) != fmt.Sprint(wantCounts) {
		t.Fatalf("got segments %v %v, want %v %v", gotStages, gotCounts, wantStages, wantCounts)
	}
}

// corruptLog writes a valid one-segment log and returns its bytes.
func validLogBytes(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var store HopStore
	views := randomTraces(rng, &store, 10)
	path := filepath.Join(t.TempDir(), "traces.seg")
	writeLog(t, path, []string{"sweep"}, [][]TraceView{views})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeAll replays a log through both decoders (Next, then NextSyms
// on a fresh reader) and returns the first error either reports.
func decodeAll(path string) error {
	next, syms := decodeEach(path)
	if next != nil {
		return next
	}
	return syms
}

// decodeEach replays a log through Next and, on a fresh reader, through
// NextSyms, returning each decoder's first error.
func decodeEach(path string) (next, syms error) {
	var seg Segment
	var w SymWindow
	return replayWith(path, func(r *SegmentReader) (bool, error) { return r.Next(&seg) }),
		replayWith(path, func(r *SegmentReader) (bool, error) { return r.NextSyms(&w) })
}

func replayWith(path string, next func(r *SegmentReader) (bool, error)) error {
	r, err := OpenSegmentLog(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		ok, err := next(r)
		if err != nil || !ok {
			return err
		}
	}
}

// TestDecodersRejectMalformedSymbols hand-builds CRC-valid one-window
// logs whose trace body breaks a symbol rule Append keeps (endpoints
// and responsive hops carry a nonzero in-range symbol, timeout hops
// exactly 0) and requires Next and NextSyms alike to reject each one.
func TestDecodersRejectMalformedSymbols(t *testing.T) {
	// logOf frames one window of stage "s" holding one trace body, with
	// local symbols 1 and 2 naming 10.0.0.1 and 10.0.0.2.
	logOf := func(trace []byte) []byte {
		p := binary.AppendUvarint(nil, 1)
		p = append(p, 's')
		p = binary.AppendUvarint(p, 1) // trace count
		p = binary.AppendUvarint(p, 2) // symbol count
		p = symtab.AppendRemap(p, []symtab.Sym{0, 1})
		for _, a := range [][4]byte{{10, 0, 0, 1}, {10, 0, 0, 2}} {
			p = binary.AppendUvarint(p, 4)
			p = append(p, a[:]...)
		}
		p = append(p, trace...)
		b := append([]byte(nil), segHeader[:]...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
		return append(b, p...)
	}
	type hop struct {
		sym uint64
		typ netsim.ReplyType
	}
	body := func(src, dst uint64, hops ...hop) []byte {
		b := binary.AppendUvarint(nil, src)
		b = binary.AppendUvarint(b, dst)
		b = append(b, 1)                  // flags: reached
		b = append(b, make([]byte, 7)...) // the seven ledger uvarints, all 0
		b = binary.AppendUvarint(b, uint64(len(hops)))
		for i, h := range hops {
			b = binary.AppendUvarint(b, h.sym)
			b = binary.AppendUvarint(b, uint64(i+1)) // TTL
			b = binary.AppendUvarint(b, 1000)        // RTT
			b = append(b, byte(h.typ), 60)
		}
		return b
	}
	resp, star := netsim.TTLExceeded, netsim.Timeout
	decode := func(t *testing.T, trace []byte) (next, syms error) {
		path := filepath.Join(t.TempDir(), "hand.seg")
		if err := os.WriteFile(path, logOf(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		return decodeEach(path)
	}
	if next, syms := decode(t, body(1, 2, hop{1, resp}, hop{0, star}, hop{2, netsim.EchoReply})); next != nil || syms != nil {
		t.Fatalf("well-formed hand-built frame rejected: Next %v, NextSyms %v", next, syms)
	}
	for _, tc := range []struct {
		name  string
		trace []byte
	}{
		{"src-sym-0", body(0, 2)},
		{"dst-sym-0", body(1, 0)},
		{"src-sym-out-of-range", body(3, 2)},
		{"dst-sym-out-of-range", body(1, 9)},
		{"responsive-hop-sym-0", body(1, 2, hop{0, resp})},
		{"responsive-hop-sym-out-of-range", body(1, 2, hop{3, resp})},
		{"timeout-hop-sym-in-range", body(1, 2, hop{1, star})},
		{"timeout-hop-sym-out-of-range", body(1, 2, hop{1, resp}, hop{7, star})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next, syms := decode(t, tc.trace)
			if !errors.Is(next, ErrCorruptSegment) || !errors.Is(syms, ErrCorruptSegment) {
				t.Fatalf("Next %v, NextSyms %v; want ErrCorruptSegment from both", next, syms)
			}
		})
	}
}

func TestSegmentDecodeErrors(t *testing.T) {
	data := validLogBytes(t)
	write := func(t *testing.T, b []byte) string {
		path := filepath.Join(t.TempDir(), "bad.seg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Run("valid", func(t *testing.T) {
		if err := decodeAll(write(t, data)); err != nil {
			t.Fatalf("valid log failed: %v", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		err := decodeAll(write(t, data[:5]))
		if !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("got %v, want ErrTruncatedSegment", err)
		}
	})
	t.Run("truncated-frame-header", func(t *testing.T) {
		err := decodeAll(write(t, data[:11]))
		if !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("got %v, want ErrTruncatedSegment", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		err := decodeAll(write(t, data[:len(data)-7]))
		if !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("got %v, want ErrTruncatedSegment", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[0] = 'X'
		err := decodeAll(write(t, b))
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("got %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(b[4:], 99)
		err := decodeAll(write(t, b))
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("got %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("flipped-payload-bit", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		err := decodeAll(write(t, b))
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("got %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("oversized-frame-len", func(t *testing.T) {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[8:], 1<<30)
		err := decodeAll(write(t, b))
		if !errors.Is(err, ErrTruncatedSegment) {
			t.Fatalf("got %v, want ErrTruncatedSegment", err)
		}
	})
}

// FuzzSegmentDecode asserts the decoders never panic or over-allocate
// on arbitrary bytes — each must return a named error or decode
// cleanly — that Next and NextSyms agree on every input (both accept
// or both fail), and that recovery over the same bytes never panics
// and keeps only windows that decode.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(validLogBytesFuzz())
	b := validLogBytesFuzz()
	if len(b) > 20 {
		f.Add(b[:len(b)-9])
		mut := append([]byte(nil), b...)
		mut[15] ^= 0xff
		f.Add(mut)
	}
	// A complete durable log: windows, checkpoint records and the
	// complete record, whole, cut inside its final record, and with a
	// record byte flipped.
	d := durableLogBytesFuzz()
	if frames := logFrames(d); len(frames) >= 4 {
		f.Add(d)
		last := frames[len(frames)-1]
		f.Add(d[:last[0]+9])
		mut := append([]byte(nil), d...)
		mut[frames[1][0]+11] ^= 0x01
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		next, syms := decodeEach(path)
		for _, err := range []error{next, syms} {
			if err != nil && !errors.Is(err, ErrTruncatedSegment) && !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("unnamed decode error: %v", err)
			}
		}
		if (next == nil) != (syms == nil) {
			t.Fatalf("decoders disagree: Next %v, NextSyms %v", next, syms)
		}
		w, res, err := OpenDurableSegmentLog(path, "fp", noSyncFS{segfault.OS})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if w != nil {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if res.Resumed {
			if err := decodeAll(path); err != nil {
				t.Fatalf("recovered log does not decode: %v", err)
			}
		}
	})
}

// noSyncFS is the real filesystem with fsync skipped: the fuzz body
// needs recovery's bytes, not their crash safety, and should not pay a
// disk flush per input.
type noSyncFS struct{ segfault.FS }

type noSyncFile struct{ segfault.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) Create(path string) (segfault.File, error) {
	f, err := fs.FS.Create(path)
	return noSyncFile{f}, err
}

func (fs noSyncFS) OpenAppend(path string) (segfault.File, error) {
	f, err := fs.FS.OpenAppend(path)
	return noSyncFile{f}, err
}

// durableLogBytesFuzz builds a small complete durable log's bytes
// (fingerprint "fp") without a *testing.T: two one-trace windows, each
// followed by its checkpoint record, then the complete record.
func durableLogBytesFuzz() []byte {
	rng := rand.New(rand.NewSource(5))
	var store HopStore
	views := randomTraces(rng, &store, 2)
	dir, err := os.MkdirTemp("", "segfuzz")
	if err != nil {
		return nil
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.seg")
	w, err := CreateDurableSegmentLog(path, "fp", noSyncFS{segfault.OS})
	if err != nil {
		return nil
	}
	var syms logSyms
	for i, tv := range views {
		if syms.append(w, "sweep", tv) != nil || w.Checkpoint(i+1, json.RawMessage(`{"win":0}`)) != nil {
			return nil
		}
	}
	if w.MarkComplete(len(views), nil) != nil || w.Close() != nil {
		return nil
	}
	data, _ := os.ReadFile(path)
	return data
}

// validLogBytesFuzz builds seed-corpus bytes without a *testing.T.
func validLogBytesFuzz() []byte {
	rng := rand.New(rand.NewSource(9))
	var store HopStore
	views := randomTraces(rng, &store, 8)
	dir, err := os.MkdirTemp("", "segfuzz")
	if err != nil {
		return nil
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.seg")
	w, err := CreateSegmentLog(path)
	if err != nil {
		return nil
	}
	var syms logSyms
	for _, tv := range views {
		if syms.append(w, "sweep", tv) != nil {
			return nil
		}
	}
	if w.Close() != nil {
		return nil
	}
	data, _ := os.ReadFile(path)
	return data
}
