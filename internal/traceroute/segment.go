// Segment log: the spill-to-disk form of the columnar HopStore. The
// streaming campaign engine collects traces into fixed-size windows;
// each sealed window becomes one CRC-framed segment appended to a
// compact binary log, and inference replays the log window-at-a-time —
// as TraceView spans over pooled columnar scratch (Next), or straight
// into interned hop-symbol columns with no Hop rows (NextSyms) — so a
// campaign's resident footprint is O(window), not O(archive).
//
// # On-disk format (little-endian throughout)
//
//	log    := header frame*
//	header := magic "TRSG" | version u16 | flags u16
//	frame  := payloadLen u32 | crc32(payload) u32 | payload
//
// A clean log ends exactly at a frame boundary; anything else decodes
// to ErrTruncatedSegment, and any framing/CRC/content violation to
// ErrCorruptSegment — named errors, never a panic (FuzzSegmentDecode
// pins that).
//
//	payload    := window | checkpoint
//	window     := stageLen uvarint | stage | traceCount uvarint
//	              | symCount uvarint | remap | addrDelta* | trace*
//	checkpoint := 0x00 0x00 | complete u8 | paths uvarint
//	              | fpLen uvarint | fingerprint | state
//
// A checkpoint record opens where a window would carry an empty stage
// and zero traces. Seal never writes an empty window, so plain logs
// hold windows only; durable logs add a record at every resume point
// (see resume.go), and Next and NextSyms step over records.
//
// Hop addresses are interned: each segment carries a dense local symbol
// table (symtab discipline), the serialized local→global remap
// (symtab.AppendRemap — the same translation tables the parallel
// pipeline's shard merges produce), and packed 4/16-byte address bytes
// only for symbols new to the log. A sequential reader therefore
// rebuilds the global address table without re-hashing anything, and a
// hop row costs a couple of varint bytes instead of a 16-byte address.
//
//	addrDelta := addrLen uvarint (4 or 16) | addr bytes   (one per new global sym, in assignment order)
//	trace     := srcSym+1 uvarint | dstSym+1 uvarint | flags u8
//	             | flowID uvarint | probes uvarint | replied uvarint
//	             | lost uvarint | rateLimited uvarint | retries uvarint
//	             | activeTime uvarint (ns) | numHops uvarint | hop*
//	hop       := addrSym+1 uvarint (0 = unresponsive "*") | ttl uvarint
//	             | rtt uvarint (ns) | type u8 | replyTTL u8
package traceroute

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"time"

	"repro/internal/netsim"
	"repro/internal/segfault"
	"repro/internal/symtab"
)

const (
	segMagic   = "TRSG"
	segVersion = 1
)

// segHeader is every log's first eight bytes: the magic, segVersion as
// a little-endian u16, and zero flags.
var segHeader = [8]byte{'T', 'R', 'S', 'G', segVersion, 0, 0, 0}

// Named decode failures. Both wrap detail; test with errors.Is.
var (
	// ErrTruncatedSegment reports a log cut off mid-frame (an
	// interrupted writer, a partial copy).
	ErrTruncatedSegment = errors.New("traceroute: truncated segment log")
	// ErrCorruptSegment reports a log whose bytes fail validation: bad
	// magic, CRC mismatch, or a payload that does not decode.
	ErrCorruptSegment = errors.New("traceroute: corrupt segment log")
)

// SegmentWriter appends sealed trace windows to a segment log. Append
// encodes each trace into the open segment's body buffer immediately
// (the hop rows live in chunk scratch and are gone after the fold call,
// so nothing is deferred); Seal frames and flushes the accumulated
// window. The writer is single-goroutine, like the fold that feeds it.
//
// The writer does not intern addresses itself: the caller passes each
// trace's log-global symbols (see Append), which a campaign has
// already assigned in its own first-seen address table. The writer
// only renumbers them densely per segment.
type SegmentWriter struct {
	f  segfault.File
	bw *bufio.Writer

	// nGlobal counts the log-global symbols sealed so far. The open
	// segment numbers the global symbols it uses densely, in first-use
	// order, so hop varints stay small: localOf[g] is global symbol g's
	// local symbol plus one (0 = unused in this segment), locals[l] is
	// local symbol l's global symbol (the frame's remap), and fresh
	// holds the addresses of the symbols new to the log, in symbol
	// order.
	nGlobal int
	localOf []uint32
	locals  []symtab.Sym
	fresh   []netip.Addr

	stage string
	count int
	body  []byte
	head  []byte
	err   error

	// Durable mode (CreateDurableSegmentLog / OpenDurableSegmentLog):
	// every frame, window or checkpoint record, is flushed and fsynced
	// before the call that wrote it returns, and every record carries
	// the campaign fingerprint. fsys nil = plain mode: no records, no
	// syncs.
	fsys        segfault.FS
	fingerprint string
}

// CreateSegmentLog creates (truncating) a segment log at path and
// writes its header.
func CreateSegmentLog(path string) (*SegmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{
		f:  f,
		bw: bufio.NewWriterSize(f, 1<<16),
	}
	if _, err := w.bw.Write(segHeader[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// CreateDurableSegmentLog creates (truncating) a durable segment log
// for the campaign fingerprint names and syncs its header. All I/O goes
// through fsys, the injectable filesystem seam (pass segfault.OS
// outside tests).
func CreateDurableSegmentLog(path, fingerprint string, fsys segfault.FS) (*SegmentWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{
		f:           f,
		bw:          bufio.NewWriterSize(f, 1<<16),
		fsys:        fsys,
		fingerprint: fingerprint,
	}
	_, err = w.bw.Write(segHeader[:])
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Checkpoint seals any open window and appends a checkpoint record
// carrying the caller's opaque cursor snapshot; it returns once the
// record is synced. paths is the durable trace-path count, asserted by
// the resume replay. Durable logs only.
func (w *SegmentWriter) Checkpoint(paths int, state json.RawMessage) error {
	return w.checkpoint(paths, false, state)
}

// MarkComplete is Checkpoint for the final cursor: its record also
// flags the log complete, so a later OpenDurableSegmentLog replays the
// log instead of resuming collection.
func (w *SegmentWriter) MarkComplete(paths int, state json.RawMessage) error {
	return w.checkpoint(paths, true, state)
}

func (w *SegmentWriter) checkpoint(paths int, complete bool, state json.RawMessage) error {
	if w.err != nil {
		return w.err
	}
	if w.fsys == nil {
		return errors.New("traceroute: checkpoint on a non-durable segment log")
	}
	if err := w.Seal(); err != nil {
		return err
	}
	head := append(w.head[:0], 0, 0, 0)
	if complete {
		head[2] = 1
	}
	head = binary.AppendUvarint(head, uint64(paths))
	head = binary.AppendUvarint(head, uint64(len(w.fingerprint)))
	head = append(head, w.fingerprint...)
	head = append(head, state...)
	return w.writeFrame(head)
}

// Count reports the traces appended to the open (unsealed) segment.
func (w *SegmentWriter) Count() int { return w.count }

// appendSym encodes global symbol g, the symbol of address a, as its
// local symbol plus one, numbering it on first use in the segment.
func (w *SegmentWriter) appendSym(dst []byte, g uint32, a netip.Addr) ([]byte, error) {
	for int(g) >= len(w.localOf) {
		w.localOf = append(w.localOf, 0)
	}
	l := w.localOf[g]
	if l == 0 {
		if int(g) >= w.nGlobal {
			// New to the log: symbols arrive in first-seen order, so
			// this must be the next one.
			if next := w.nGlobal + len(w.fresh); int(g) != next {
				return nil, fmt.Errorf("traceroute: address %s has symbol %d, next new log symbol is %d", a, g, next)
			}
			w.fresh = append(w.fresh, a)
		}
		w.locals = append(w.locals, symtab.Sym(g))
		l = uint32(len(w.locals))
		w.localOf[g] = l
	}
	return binary.AppendUvarint(dst, uint64(l)), nil
}

// Append encodes one trace into the open segment. src, dst and hops
// are the trace's log-global address symbols: the source's, the
// destination's, and one per responsive hop in TTL order. Symbols are
// dense and assigned in first-seen order over the log's traces —
// source, destination, then responsive hops — so a symbol the log has
// not seen yet must be the next unused one; Append rejects any other.
// That is exactly the order a campaign's address table assigns its
// IDs, so the campaign passes its own IDs.
//
// A stage change seals the open segment first: a segment holds traces
// of exactly one collection stage, which is what lets replay attribute
// stages without per-trace tags.
func (w *SegmentWriter) Append(stage string, tv TraceView, src, dst uint32, hops []uint32) error {
	if w.err != nil {
		return w.err
	}
	if w.count > 0 && stage != w.stage {
		if err := w.Seal(); err != nil {
			return err
		}
	}
	w.stage = stage
	b, err := w.appendSym(w.body, src, tv.Src)
	if err == nil {
		b, err = w.appendSym(b, dst, tv.Dst)
	}
	if err != nil {
		w.err = err
		return err
	}
	var flags byte
	if tv.Reached {
		flags |= 1
	}
	if tv.Truncated {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(tv.FlowID))
	b = binary.AppendUvarint(b, uint64(tv.Probes))
	b = binary.AppendUvarint(b, uint64(tv.Replied))
	b = binary.AppendUvarint(b, uint64(tv.Lost))
	b = binary.AppendUvarint(b, uint64(tv.RateLimited))
	b = binary.AppendUvarint(b, uint64(tv.Retries))
	b = binary.AppendUvarint(b, uint64(tv.ActiveTime))
	n := tv.NumHops()
	b = binary.AppendUvarint(b, uint64(n))
	st, lo := tv.store, tv.lo
	next := 0
	for k := 0; k < n; k++ {
		if st.types[lo+k] == netsim.Timeout {
			b = append(b, 0) // unresponsive "*"
		} else {
			if next == len(hops) {
				err = fmt.Errorf("traceroute: trace %s>%s has more responsive hops than its %d symbols", tv.Src, tv.Dst, len(hops))
				break
			}
			if b, err = w.appendSym(b, hops[next], st.addrs[lo+k]); err != nil {
				break
			}
			next++
		}
		b = binary.AppendUvarint(b, uint64(st.ttls[lo+k]))
		b = binary.AppendUvarint(b, uint64(st.rtts[lo+k]))
		b = append(b, byte(st.types[lo+k]), st.replyTTLs[lo+k])
	}
	if err == nil && next != len(hops) {
		err = fmt.Errorf("traceroute: trace %s>%s has %d responsive hops, %d symbols", tv.Src, tv.Dst, next, len(hops))
	}
	if err != nil {
		w.err = err
		return err
	}
	w.body = b
	w.count++
	return nil
}

// Seal frames the open segment — remap, address delta, trace bodies,
// CRC — writes it, and resets the window. Sealing an empty segment is a
// no-op, so callers may seal unconditionally at stage boundaries.
func (w *SegmentWriter) Seal() error {
	if w.err != nil {
		return w.err
	}
	if w.count == 0 {
		return nil
	}
	head := w.head[:0]
	head = binary.AppendUvarint(head, uint64(len(w.stage)))
	head = append(head, w.stage...)
	head = binary.AppendUvarint(head, uint64(w.count))
	head = binary.AppendUvarint(head, uint64(len(w.locals)))
	head = symtab.AppendRemap(head, w.locals)
	// New-to-the-log addresses, in global symbol order (which is also
	// their local first-use order).
	for _, a := range w.fresh {
		if a.Is4() {
			k := a.As4()
			head = binary.AppendUvarint(head, 4)
			head = append(head, k[:]...)
		} else {
			k := a.As16()
			head = binary.AppendUvarint(head, 16)
			head = append(head, k[:]...)
		}
	}
	if err := w.writeFrame(head); err != nil {
		return err
	}
	for _, g := range w.locals {
		w.localOf[g] = 0
	}
	w.nGlobal += len(w.fresh)
	w.locals = w.locals[:0]
	w.fresh = w.fresh[:0]
	return nil
}

// writeFrame writes one frame — head, then the open segment's trace
// bodies (none for a checkpoint record), behind the length and CRC —
// syncs it in a durable log, and empties the segment.
func (w *SegmentWriter) writeFrame(head []byte) error {
	crc := crc32.ChecksumIEEE(head)
	crc = crc32.Update(crc, crc32.IEEETable, w.body)
	var fh [8]byte
	binary.LittleEndian.PutUint32(fh[0:], uint32(len(head)+len(w.body)))
	binary.LittleEndian.PutUint32(fh[4:], crc)
	if _, err := w.bw.Write(fh[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(head); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(w.body); err != nil {
		w.err = err
		return err
	}
	if w.fsys != nil {
		if err := w.bw.Flush(); err != nil {
			w.err = err
			return err
		}
		if err := w.f.Sync(); err != nil {
			w.err = err
			return err
		}
	}
	w.head = head[:0]
	w.body = w.body[:0]
	w.count = 0
	return nil
}

// Close seals any open segment, flushes, and closes the file.
func (w *SegmentWriter) Close() error {
	err := w.Seal()
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Segment is one decoded window: trace scalars plus a columnar HopStore
// holding every hop row, exposed as TraceView spans. A Segment is
// reused across Next calls (buffers reset, capacity kept), so views are
// valid only until the next Next — the same lifetime contract as fold
// chunk scratch.
type Segment struct {
	// Stage is the collection stage the window's traces belong to.
	Stage  string
	store  HopStore
	traces []Trace
	los    []int32
}

// NumTraces reports the decoded trace count.
func (s *Segment) NumTraces() int { return len(s.traces) }

// View returns the i-th trace as a TraceView over the segment's
// columnar store.
func (s *Segment) View(i int) TraceView {
	hi := s.store.Len()
	if i+1 < len(s.los) {
		hi = int(s.los[i+1])
	}
	return TraceView{Trace: s.traces[i], store: &s.store, lo: int(s.los[i]), hi: hi}
}

func (s *Segment) reset() {
	s.Stage = ""
	s.store.Reset()
	s.traces = s.traces[:0]
	s.los = s.los[:0]
}

// SegmentReader replays a segment log sequentially. The file bytes are
// mapped read-only where the platform allows (see segio_unix.go) with a
// read-everything fallback elsewhere; decoding writes only into the
// caller's reusable Segment.
type SegmentReader struct {
	data  []byte
	off   int
	addrs []netip.Addr // global sym -> address
	unmap func() error
}

// mapSegment is the platform mapping seam. Tests swap in
// readSegmentFile to exercise the non-mmap fallback on any platform;
// everything else uses the build-tagged platformMapSegmentFile.
var mapSegment = platformMapSegmentFile

// OpenSegmentLog opens a log for replay and validates its header.
func OpenSegmentLog(path string) (*SegmentReader, error) {
	data, unmap, err := mapSegment(path)
	if err != nil {
		return nil, err
	}
	r := &SegmentReader{data: data, unmap: unmap}
	// Header validation failures must release the mapping before the
	// reader escapes — and surface an unmap failure rather than leak it.
	fail := func(err error) (*SegmentReader, error) {
		if cerr := r.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	if len(data) < 8 {
		return fail(fmt.Errorf("%w: %d-byte header", ErrTruncatedSegment, len(data)))
	}
	if string(data[:4]) != segMagic {
		magic := string(data[:4]) // copy out before Close unmaps data
		return fail(fmt.Errorf("%w: bad magic %q", ErrCorruptSegment, magic))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != segVersion {
		return fail(fmt.Errorf("%w: unsupported version %d", ErrCorruptSegment, v))
	}
	r.off = 8
	return r, nil
}

// Close releases the mapping. Views into previously decoded Segments
// stay valid (they reference decoded scratch, not the mapping).
func (r *SegmentReader) Close() error {
	if r.unmap == nil {
		return nil
	}
	u := r.unmap
	r.unmap = nil
	r.data = nil
	return u()
}

// readSegmentFile is the buffered fallback when mmap is unavailable.
func readSegmentFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// uv decodes one uvarint from the front of b.
func uv(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptSegment)
	}
	return v, b[n:], nil
}

// Next decodes the next window into seg (resetting it first). It
// returns false with a nil error at a clean end of log.
func (r *SegmentReader) Next(seg *Segment) (bool, error) {
	payload, ok, err := r.window()
	if !ok || err != nil {
		return false, err
	}
	if err := r.decodePayload(payload, seg); err != nil {
		return false, err
	}
	r.off += 8 + len(payload)
	return true, nil
}

// frame validates the framing and CRC of the frame at the read offset
// and returns its payload; ok is false with a nil error at a clean end
// of log.
func (r *SegmentReader) frame() (payload []byte, ok bool, err error) {
	if r.off == len(r.data) {
		return nil, false, nil
	}
	if len(r.data)-r.off < 8 {
		return nil, false, fmt.Errorf("%w: %d trailing bytes", ErrTruncatedSegment, len(r.data)-r.off)
	}
	payloadLen := int(binary.LittleEndian.Uint32(r.data[r.off:]))
	wantCRC := binary.LittleEndian.Uint32(r.data[r.off+4:])
	if payloadLen > len(r.data)-r.off-8 {
		return nil, false, fmt.Errorf("%w: frame wants %d bytes, %d remain", ErrTruncatedSegment, payloadLen, len(r.data)-r.off-8)
	}
	payload = r.data[r.off+8 : r.off+8+payloadLen]
	if crc := crc32.ChecksumIEEE(payload); crc != wantCRC {
		return nil, false, fmt.Errorf("%w: crc %08x != %08x", ErrCorruptSegment, crc, wantCRC)
	}
	return payload, true, nil
}

// isCheckpoint reports whether a frame payload is a checkpoint record:
// it opens with the empty stage and zero trace count no window has.
func isCheckpoint(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == 0 && payload[1] == 0
}

// window returns the payload of the next window frame, stepping over
// checkpoint records; ok is false with a nil error at a clean end of
// log.
func (r *SegmentReader) window() (payload []byte, ok bool, err error) {
	for {
		payload, ok, err = r.frame()
		if !ok || err != nil || !isCheckpoint(payload) {
			return payload, ok, err
		}
		r.off += 8 + len(payload)
	}
}

// decodeHead parses a payload's stage, trace count and symbol remap,
// and extends the reader's global address table with the frame's
// delta. It returns the trace bodies that follow.
func (r *SegmentReader) decodeHead(b []byte) (stage []byte, traceCount uint64, remap []symtab.Sym, body []byte, err error) {
	stageLen, b, err := uv(b)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	if stageLen > uint64(len(b)) {
		return nil, 0, nil, nil, fmt.Errorf("%w: stage length %d", ErrCorruptSegment, stageLen)
	}
	stage = b[:stageLen]
	b = b[stageLen:]
	traceCount, b, err = uv(b)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	symCount, b, err := uv(b)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	// Every trace costs >= 12 bytes and every symbol >= 1; a count past
	// that is corrupt, not a giant allocation.
	if traceCount > uint64(len(b)/12)+1 || symCount > uint64(len(b))+1 {
		return nil, 0, nil, nil, fmt.Errorf("%w: counts %d/%d exceed %d payload bytes", ErrCorruptSegment, traceCount, symCount, len(b))
	}
	remap, b, err = symtab.DecodeRemap(b)
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	if uint64(len(remap)) != symCount {
		return nil, 0, nil, nil, fmt.Errorf("%w: remap has %d entries, want %d", ErrCorruptSegment, len(remap), symCount)
	}
	// Address delta: each remap entry pointing at a fresh global ID
	// carries its packed bytes, in assignment order.
	for s, g := range remap {
		if int(g) < len(r.addrs) {
			continue
		}
		if int(g) != len(r.addrs) {
			return nil, 0, nil, nil, fmt.Errorf("%w: local sym %d maps to %d, next global is %d", ErrCorruptSegment, s, g, len(r.addrs))
		}
		var alen uint64
		alen, b, err = uv(b)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		if alen != 4 && alen != 16 {
			return nil, 0, nil, nil, fmt.Errorf("%w: %d-byte address", ErrCorruptSegment, alen)
		}
		if uint64(len(b)) < alen {
			return nil, 0, nil, nil, fmt.Errorf("%w: short address bytes", ErrCorruptSegment)
		}
		var a netip.Addr
		if alen == 4 {
			a = netip.AddrFrom4([4]byte(b[:4]))
		} else {
			a = netip.AddrFrom16([16]byte(b[:16]))
		}
		r.addrs = append(r.addrs, a)
		b = b[alen:]
	}
	return stage, traceCount, remap, b, nil
}

// frameWalk is the one validating walk over a window's trace bodies:
// Next (decodePayload) and NextSyms (decodeSyms) both decode through
// it, so they accept exactly the same frames — the frames Append
// writes, in which every endpoint and every responsive hop carries a
// nonzero in-range symbol (local symbol plus one) and every timeout hop
// carries 0. trace decodes a trace's fixed fields (endpoints, the flags
// byte — bit 0 reached, bit 1 truncated — the ledger FlowID, Probes,
// Replied, Lost, RateLimited, Retries, ActiveTime, and the hop row
// count); hop decodes one hop row (symbol, TTL, RTT, reply type, reply
// TTL). Both leave the fields in the walk, symbols resolved to
// log-global ones.
type frameWalk struct {
	b     []byte
	remap []symtab.Sym

	src, dst uint32
	flags    byte
	ledger   [7]uint64
	numHops  uint64

	// sym is the hop's global symbol; zero for a timeout hop.
	sym      uint32
	ttl, rtt uint64
	typ      netsim.ReplyType
	replyTTL uint8
}

// trace decodes the next trace's fixed fields.
func (w *frameWalk) trace() error {
	var src, dst uint64
	var err error
	if src, w.b, err = uv(w.b); err != nil {
		return err
	}
	if dst, w.b, err = uv(w.b); err != nil {
		return err
	}
	if len(w.b) < 1 {
		return fmt.Errorf("%w: missing flags", ErrCorruptSegment)
	}
	w.flags = w.b[0]
	w.b = w.b[1:]
	for f := range w.ledger {
		if w.ledger[f], w.b, err = uv(w.b); err != nil {
			return err
		}
	}
	if w.numHops, w.b, err = uv(w.b); err != nil {
		return err
	}
	if w.numHops > uint64(len(w.b)/4)+1 {
		return fmt.Errorf("%w: %d hops in %d bytes", ErrCorruptSegment, w.numHops, len(w.b))
	}
	if w.src, err = w.global(src); err != nil {
		return err
	}
	w.dst, err = w.global(dst)
	return err
}

// hop decodes the current trace's next hop row.
func (w *frameWalk) hop() error {
	var sym uint64
	var err error
	if sym, w.b, err = uv(w.b); err != nil {
		return err
	}
	if w.ttl, w.b, err = uv(w.b); err != nil {
		return err
	}
	if w.rtt, w.b, err = uv(w.b); err != nil {
		return err
	}
	if len(w.b) < 2 {
		return fmt.Errorf("%w: short hop row", ErrCorruptSegment)
	}
	w.typ, w.replyTTL = netsim.ReplyType(w.b[0]), w.b[1]
	w.b = w.b[2:]
	if w.typ == netsim.Timeout {
		w.sym = 0
		if sym != 0 {
			return fmt.Errorf("%w: timeout hop carries address sym %d", ErrCorruptSegment, sym)
		}
		return nil
	}
	w.sym, err = w.global(sym)
	return err
}

// global resolves a wire symbol (local symbol plus one) to its global
// symbol; 0 and out-of-range symbols are corrupt.
func (w *frameWalk) global(v uint64) (uint32, error) {
	if v == 0 || v-1 >= uint64(len(w.remap)) {
		return 0, fmt.Errorf("%w: address sym %d of %d", ErrCorruptSegment, v, len(w.remap))
	}
	return uint32(w.remap[v-1]), nil
}

// end checks that the walk consumed the whole payload.
func (w *frameWalk) end() error {
	if len(w.b) != 0 {
		return fmt.Errorf("%w: %d undecoded payload bytes", ErrCorruptSegment, len(w.b))
	}
	return nil
}

func (r *SegmentReader) decodePayload(b []byte, seg *Segment) error {
	seg.reset()
	stage, traceCount, remap, b, err := r.decodeHead(b)
	if err != nil {
		return err
	}
	seg.Stage = string(stage)
	w := frameWalk{b: b, remap: remap}
	for t := uint64(0); t < traceCount; t++ {
		if err := w.trace(); err != nil {
			return err
		}
		seg.los = append(seg.los, int32(seg.store.Len()))
		for k := uint64(0); k < w.numHops; k++ {
			if err := w.hop(); err != nil {
				return err
			}
			h := Hop{TTL: int(w.ttl), RTT: time.Duration(w.rtt), Type: w.typ, ReplyTTL: w.replyTTL}
			if w.typ != netsim.Timeout {
				h.Addr = r.addrs[w.sym]
			}
			seg.store.push(h)
		}
		seg.traces = append(seg.traces, Trace{
			Src:         r.addrs[w.src],
			Dst:         r.addrs[w.dst],
			Reached:     w.flags&1 != 0,
			Truncated:   w.flags&2 != 0,
			FlowID:      uint16(w.ledger[0]),
			Probes:      int(w.ledger[1]),
			Replied:     int(w.ledger[2]),
			Lost:        int(w.ledger[3]),
			RateLimited: int(w.ledger[4]),
			Retries:     int(w.ledger[5]),
			ActiveTime:  time.Duration(w.ledger[6]),
		})
	}
	return w.end()
}

// SymWindow is a window of traces in interned columnar form: each
// trace's endpoints and its responsive hops as log-global address
// symbols (indexes into SegmentReader.Addrs), with unresponsive hops
// folded into a gap flag on the next responsive hop. It carries no
// Hop rows, TTLs, RTTs or ledgers — only what path analysis reads.
// Trace i's hops are Hops[Ends[i-1]:Ends[i]] (from 0 for i == 0).
// Decoding resets every column and keeps capacity, so one SymWindow
// recycles across NextSyms calls.
type SymWindow struct {
	Stage    string
	Src, Dst []uint32
	Reached  []bool
	Ends     []int32
	Hops     []uint32
	// Gaps[k] is true when unresponsive hops preceded Hops[k].
	Gaps []bool
}

// Len reports the window's trace count.
func (w *SymWindow) Len() int { return len(w.Src) }

// Reset empties every column, keeping capacity.
func (w *SymWindow) Reset() {
	w.Stage = ""
	w.Src, w.Dst, w.Reached = w.Src[:0], w.Dst[:0], w.Reached[:0]
	w.Ends, w.Hops, w.Gaps = w.Ends[:0], w.Hops[:0], w.Gaps[:0]
}

// Addrs is the log-global symbol table decoded so far: Addrs()[s] is
// the address of symbol s. Symbols are assigned in the log's
// first-seen order of trace endpoints and hop addresses, so after a
// full replay the table is the same at any window size.
func (r *SegmentReader) Addrs() []netip.Addr { return r.addrs }

// NextSyms decodes the next window into w in symbol form (see
// SymWindow), resetting w first. It validates exactly what Next
// validates (both decode through frameWalk) and returns false with a
// nil error at a clean end of log.
func (r *SegmentReader) NextSyms(w *SymWindow) (bool, error) {
	payload, ok, err := r.window()
	if !ok || err != nil {
		return false, err
	}
	if err := r.decodeSyms(payload, w); err != nil {
		return false, err
	}
	r.off += 8 + len(payload)
	return true, nil
}

func (r *SegmentReader) decodeSyms(b []byte, sw *SymWindow) error {
	sw.Reset()
	stage, traceCount, remap, b, err := r.decodeHead(b)
	if err != nil {
		return err
	}
	sw.Stage = string(stage)
	w := frameWalk{b: b, remap: remap}
	for t := uint64(0); t < traceCount; t++ {
		if err := w.trace(); err != nil {
			return err
		}
		gap := false
		for k := uint64(0); k < w.numHops; k++ {
			if err := w.hop(); err != nil {
				return err
			}
			if w.typ == netsim.Timeout {
				gap = true
				continue
			}
			sw.Hops = append(sw.Hops, w.sym)
			sw.Gaps = append(sw.Gaps, gap)
			gap = false
		}
		sw.Src = append(sw.Src, w.src)
		sw.Dst = append(sw.Dst, w.dst)
		sw.Reached = append(sw.Reached, w.flags&1 != 0)
		sw.Ends = append(sw.Ends, int32(len(sw.Hops)))
	}
	return w.end()
}
