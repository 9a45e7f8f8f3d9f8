package comap

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"testing"

	"repro/internal/segfault"
	"repro/internal/symtab"
	"repro/internal/topogen"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// refSegmentWriter is the segment encoder as it read when the writer
// interned every address itself: a log-global table over packed
// address bytes, a per-segment local table re-interning each trace's
// endpoints and hop addresses, and a seal that merges local into
// global for the frame's remap and address delta. The campaign's
// writer now takes the archive's AddrIDs instead; its frames must
// equal this encoder's byte for byte.
type refSegmentWriter struct {
	global, local *symtab.Table
	count         int
	body          []byte
}

func newRefSegmentWriter() *refSegmentWriter {
	return &refSegmentWriter{global: symtab.New(0), local: symtab.New(0)}
}

func (w *refSegmentWriter) appendAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, 0)
	}
	var s symtab.Sym
	if a.Is4() {
		k := a.As4()
		s = w.local.Intern(string(k[:]))
	} else {
		k := a.As16()
		s = w.local.Intern(string(k[:]))
	}
	return binary.AppendUvarint(dst, uint64(s)+1)
}

func (w *refSegmentWriter) append(tv traceroute.TraceView) {
	b := w.body
	b = w.appendAddr(b, tv.Src)
	b = w.appendAddr(b, tv.Dst)
	var flags byte
	if tv.Reached {
		flags |= 1
	}
	if tv.Truncated {
		flags |= 2
	}
	b = append(b, flags)
	for _, v := range []int{int(tv.FlowID), tv.Probes, tv.Replied, tv.Lost, tv.RateLimited, tv.Retries, int(tv.ActiveTime)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(tv.NumHops()))
	for k := 0; k < tv.NumHops(); k++ {
		h := tv.Hop(k)
		b = w.appendAddr(b, h.Addr)
		b = binary.AppendUvarint(b, uint64(h.TTL))
		b = binary.AppendUvarint(b, uint64(h.RTT))
		b = append(b, byte(h.Type), h.ReplyTTL)
	}
	w.body = b
	w.count++
}

// seal returns the open segment's framed bytes (length, CRC, payload)
// and its CRC, and starts the next segment.
func (w *refSegmentWriter) seal(stage string) ([]byte, uint32) {
	prevGlobal := w.global.Len()
	remap := w.global.Merge(w.local)
	var head []byte
	head = binary.AppendUvarint(head, uint64(len(stage)))
	head = append(head, stage...)
	head = binary.AppendUvarint(head, uint64(w.count))
	head = binary.AppendUvarint(head, uint64(len(remap)))
	head = symtab.AppendRemap(head, remap)
	for s, g := range remap {
		if int(g) >= prevGlobal {
			k := w.local.Str(symtab.Sym(s))
			head = binary.AppendUvarint(head, uint64(len(k)))
			head = append(head, k...)
		}
	}
	payload := append(head, w.body...)
	crc := crc32.ChecksumIEEE(payload)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	frame = append(frame, payload...)
	w.local = symtab.New(0)
	w.body = w.body[:0]
	w.count = 0
	return frame, crc
}

// noSyncFS is the real filesystem with fsync skipped: the byte-identity
// check below seals thousands of durable windows and needs the frames
// and manifests, not their crash safety.
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

// TestSegmentWriterMatchesInterningReference runs the seed-7 1x
// comcast campaign durably at two window sizes and re-encodes every
// sealed window of its spill log with the interning reference encoder:
// the log bytes must be identical, and so must the manifest's segment
// records, with every checkpoint on a frame boundary.
func TestSegmentWriterMatchesInterningReference(t *testing.T) {
	s := topogen.NewScenario(7)
	comcast := s.BuildCable(topogen.ComcastProfile())
	charter := s.BuildCable(topogen.CharterProfile())
	vps := s.StandardVPs(comcast, charter)
	for _, window := range []int{16, 4096} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			c := &Campaign{
				Net:         s.Net,
				DNS:         s.DNS,
				Clock:       vclock.New(s.Epoch()),
				ISP:         comcast.Name,
				VPs:         vps,
				Announced:   comcast.Announced,
				SkipAlias:   true,
				TraceWindow: window,
				SpillDir:    t.TempDir(),
				Durable:     true,
				SpillFS:     noSyncFS{segfault.OS},
			}
			col, err := c.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			logPath := col.spill.logPath
			got, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			mdata, err := os.ReadFile(traceroute.ManifestPath(logPath))
			if err != nil {
				t.Fatal(err)
			}
			m, err := traceroute.DecodeManifest(mdata)
			if err != nil {
				t.Fatal(err)
			}

			r, err := traceroute.OpenSegmentLog(logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ref := newRefSegmentWriter()
			want := append([]byte(nil), got[:8]...) // header
			var records []traceroute.SegmentRecord
			boundary := map[int64]bool{}
			var seg traceroute.Segment
			for {
				ok, err := r.Next(&seg)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for i := 0; i < seg.NumTraces(); i++ {
					ref.append(seg.View(i))
				}
				frame, crc := ref.seal(seg.Stage)
				off := int64(len(want))
				if !bytes.Equal(frame, got[off:min(len(got), int(off)+len(frame))]) {
					t.Fatalf("window %d (stage %s, %d traces) at offset %d differs from the interning reference", len(records), seg.Stage, seg.NumTraces(), off)
				}
				want = append(want, frame...)
				records = append(records, traceroute.SegmentRecord{
					Offset: off, Length: int64(len(frame)), CRC: crc, Stage: seg.Stage, Traces: seg.NumTraces(),
				})
				boundary[int64(len(want))] = true
			}
			if len(records) < 2 {
				t.Fatalf("campaign sealed %d windows; the check needs several", len(records))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("log is %d bytes, the interning reference %d", len(got), len(want))
			}
			if len(m.Segments) != len(records) {
				t.Fatalf("manifest records %d windows, log holds %d", len(m.Segments), len(records))
			}
			for i, rec := range records {
				if m.Segments[i] != rec {
					t.Fatalf("manifest window %d = %+v, reference %+v", i, m.Segments[i], rec)
				}
			}
			if !m.Complete || len(m.Checkpoints) == 0 || m.Checkpoints[len(m.Checkpoints)-1].Offset != int64(len(want)) {
				t.Fatalf("manifest does not end complete at the log's end (%d bytes): complete=%v, %d checkpoints", len(want), m.Complete, len(m.Checkpoints))
			}
			for i, cp := range m.Checkpoints {
				if !boundary[cp.Offset] {
					t.Fatalf("checkpoint %d at offset %d is not on a frame boundary", i, cp.Offset)
				}
			}
		})
	}
}
