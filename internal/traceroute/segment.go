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
//	payload := stageLen uvarint | stage | traceCount uvarint
//	           | symCount uvarint | remap | addrDelta* | trace*
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
	// every Seal fsyncs the log and atomically rewrites the manifest, so
	// a crash loses at most the open window. fsys nil = plain mode, no
	// manifest, no syncs — exactly the original writer.
	fsys     segfault.FS
	logPath  string
	manifest *Manifest
	menc     manifestEncoder
	off      int64
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
	var hdr [8]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0) // flags, reserved
	if _, err := w.bw.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// CreateDurableSegmentLog creates (truncating) a durable segment log:
// the header is synced immediately and an empty manifest stamped with
// fingerprint is published, so a crash at any later instant finds a
// decodable pair on disk. All I/O goes through fsys, the injectable
// filesystem seam (pass segfault.OS outside tests).
func CreateDurableSegmentLog(path, fingerprint string, fsys segfault.FS) (*SegmentWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<16),
		fsys:    fsys,
		logPath: path,
		off:     8,
		manifest: &Manifest{
			Schema:      manifestSchema,
			SegVersion:  segVersion,
			Fingerprint: fingerprint,
		},
	}
	var hdr [8]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0) // flags, reserved
	if _, err := w.bw.Write(hdr[:]); err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := w.writeManifest(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// writeManifest atomically publishes the current manifest: write to a
// sibling temp file, fsync, rename over the target. A crash mid-write
// leaves the previous manifest intact (plus a stray .tmp that make
// clean sweeps).
func (w *SegmentWriter) writeManifest() error {
	if w.fsys == nil {
		return nil
	}
	path := ManifestPath(w.logPath)
	tmp := path + ".tmp"
	f, err := w.fsys.Create(tmp)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := f.Write(w.menc.encode(w.manifest)); err != nil {
		f.Close()
		w.err = err
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.err = err
		return err
	}
	if err := f.Close(); err != nil {
		w.err = err
		return err
	}
	if err := w.fsys.Rename(tmp, path); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Checkpoint seals any open window and records a resume point carrying
// the caller's opaque cursor snapshot. paths is the durable trace-path
// count, asserted by the resume replay. Durable logs only.
func (w *SegmentWriter) Checkpoint(paths int, state json.RawMessage) error {
	if w.err != nil {
		return w.err
	}
	if w.fsys == nil {
		return errors.New("traceroute: Checkpoint on a non-durable segment log")
	}
	if err := w.Seal(); err != nil {
		return err
	}
	w.manifest.Checkpoints = append(w.manifest.Checkpoints, Checkpoint{Offset: w.off, Paths: paths, State: state})
	return w.writeManifest()
}

// MarkComplete records the final checkpoint and flags the log complete:
// a later OpenDurableSegmentLog replays it instead of resuming
// collection. Durable logs only.
func (w *SegmentWriter) MarkComplete(paths int, state json.RawMessage) error {
	if w.err != nil {
		return w.err
	}
	if w.fsys == nil {
		return errors.New("traceroute: MarkComplete on a non-durable segment log")
	}
	if err := w.Seal(); err != nil {
		return err
	}
	w.manifest.Complete = true
	w.manifest.Checkpoints = append(w.manifest.Checkpoints, Checkpoint{Offset: w.off, Paths: paths, State: state})
	return w.writeManifest()
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
	return w.writeManifest()
}

// writeFrame writes the open segment's frame — head, then the trace
// bodies, behind the length and CRC — records it in a durable log's
// manifest (which the caller then publishes), and empties the body.
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
		// Durability order: the frame's bytes reach the platter before
		// the manifest records them, so the manifest never points past
		// what a crash would leave behind.
		if err := w.bw.Flush(); err != nil {
			w.err = err
			return err
		}
		if err := w.f.Sync(); err != nil {
			w.err = err
			return err
		}
		frameLen := int64(8 + len(head) + len(w.body))
		w.manifest.Segments = append(w.manifest.Segments, SegmentRecord{
			Offset: w.off,
			Length: frameLen,
			CRC:    crc,
			Stage:  w.stage,
			Traces: w.count,
		})
		w.off += frameLen
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

// Next decodes the next frame into seg (resetting it first). It returns
// false with a nil error at a clean end of log.
func (r *SegmentReader) Next(seg *Segment) (bool, error) {
	payload, ok, err := r.frame()
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

// traceHead is one trace body's fixed fields, in wire order: the
// endpoint symbols (local symbol plus one, 0 for the invalid address),
// the flags byte (bit 0 reached, bit 1 truncated), the ledger (FlowID,
// Probes, Replied, Lost, RateLimited, Retries, ActiveTime) and the hop
// row count. Append writes this layout; readTraceHead and readHopRow
// are its only readers.
type traceHead struct {
	src, dst uint64
	flags    byte
	ledger   [7]uint64
	numHops  uint64
}

// readTraceHead decodes a trace body's fixed fields from the front of
// b and returns the rest (the hop rows onward).
func readTraceHead(b []byte, h *traceHead) ([]byte, error) {
	var err error
	if h.src, b, err = uv(b); err != nil {
		return nil, err
	}
	if h.dst, b, err = uv(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: missing flags", ErrCorruptSegment)
	}
	h.flags = b[0]
	b = b[1:]
	for f := range h.ledger {
		if h.ledger[f], b, err = uv(b); err != nil {
			return nil, err
		}
	}
	if h.numHops, b, err = uv(b); err != nil {
		return nil, err
	}
	if h.numHops > uint64(len(b)/4)+1 {
		return nil, fmt.Errorf("%w: %d hops in %d bytes", ErrCorruptSegment, h.numHops, len(b))
	}
	return b, nil
}

// hopRow is one hop row, in wire order: the address symbol (plus one,
// as in traceHead), TTL, RTT, reply type and reply TTL.
type hopRow struct {
	sym, ttl, rtt uint64
	typ           netsim.ReplyType
	replyTTL      uint8
}

// readHopRow decodes one hop row from the front of b and returns the
// rest.
func readHopRow(b []byte, h *hopRow) ([]byte, error) {
	var err error
	if h.sym, b, err = uv(b); err != nil {
		return nil, err
	}
	if h.ttl, b, err = uv(b); err != nil {
		return nil, err
	}
	if h.rtt, b, err = uv(b); err != nil {
		return nil, err
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short hop row", ErrCorruptSegment)
	}
	h.typ, h.replyTTL = netsim.ReplyType(b[0]), b[1]
	return b[2:], nil
}

func (r *SegmentReader) decodePayload(b []byte, seg *Segment) error {
	seg.reset()
	stage, traceCount, remap, b, err := r.decodeHead(b)
	if err != nil {
		return err
	}
	seg.Stage = string(stage)
	addrOf := func(v uint64) (netip.Addr, error) {
		if v == 0 {
			return netip.Addr{}, nil
		}
		if v-1 >= uint64(len(remap)) {
			return netip.Addr{}, fmt.Errorf("%w: local sym %d of %d", ErrCorruptSegment, v-1, len(remap))
		}
		return r.addrs[remap[v-1]], nil
	}
	var th traceHead
	var row hopRow
	for t := uint64(0); t < traceCount; t++ {
		if b, err = readTraceHead(b, &th); err != nil {
			return err
		}
		tr := Trace{
			Reached:     th.flags&1 != 0,
			Truncated:   th.flags&2 != 0,
			FlowID:      uint16(th.ledger[0]),
			Probes:      int(th.ledger[1]),
			Replied:     int(th.ledger[2]),
			Lost:        int(th.ledger[3]),
			RateLimited: int(th.ledger[4]),
			Retries:     int(th.ledger[5]),
			ActiveTime:  time.Duration(th.ledger[6]),
		}
		if tr.Src, err = addrOf(th.src); err != nil {
			return err
		}
		if tr.Dst, err = addrOf(th.dst); err != nil {
			return err
		}
		seg.los = append(seg.los, int32(seg.store.Len()))
		for k := uint64(0); k < th.numHops; k++ {
			if b, err = readHopRow(b, &row); err != nil {
				return err
			}
			h := Hop{TTL: int(row.ttl), RTT: time.Duration(row.rtt), Type: row.typ, ReplyTTL: row.replyTTL}
			if h.Addr, err = addrOf(row.sym); err != nil {
				return err
			}
			seg.store.push(h)
		}
		seg.traces = append(seg.traces, tr)
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d undecoded payload bytes", ErrCorruptSegment, len(b))
	}
	return nil
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

// NextSyms decodes the next frame into w in symbol form (see
// SymWindow), resetting w first. It validates exactly what Next
// validates and returns false with a nil error at a clean end of log.
func (r *SegmentReader) NextSyms(w *SymWindow) (bool, error) {
	payload, ok, err := r.frame()
	if !ok || err != nil {
		return false, err
	}
	if err := r.decodeSyms(payload, w); err != nil {
		return false, err
	}
	r.off += 8 + len(payload)
	return true, nil
}

func (r *SegmentReader) decodeSyms(b []byte, w *SymWindow) error {
	w.Reset()
	stage, traceCount, remap, b, err := r.decodeHead(b)
	if err != nil {
		return err
	}
	w.Stage = string(stage)
	symOf := func(v uint64) (uint32, error) {
		if v == 0 || v-1 >= uint64(len(remap)) {
			return 0, fmt.Errorf("%w: address sym %d of %d", ErrCorruptSegment, v, len(remap))
		}
		return uint32(remap[v-1]), nil
	}
	var th traceHead
	var row hopRow
	for t := uint64(0); t < traceCount; t++ {
		if b, err = readTraceHead(b, &th); err != nil {
			return err
		}
		src, err := symOf(th.src)
		if err != nil {
			return err
		}
		dst, err := symOf(th.dst)
		if err != nil {
			return err
		}
		gap := false
		for k := uint64(0); k < th.numHops; k++ {
			if b, err = readHopRow(b, &row); err != nil {
				return err
			}
			if row.typ == netsim.Timeout {
				gap = true
				continue
			}
			s, err := symOf(row.sym)
			if err != nil {
				return err
			}
			w.Hops = append(w.Hops, s)
			w.Gaps = append(w.Gaps, gap)
			gap = false
		}
		w.Src = append(w.Src, src)
		w.Dst = append(w.Dst, dst)
		w.Reached = append(w.Reached, th.flags&1 != 0)
		w.Ends = append(w.Ends, int32(len(w.Hops)))
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d undecoded payload bytes", ErrCorruptSegment, len(b))
	}
	return nil
}
