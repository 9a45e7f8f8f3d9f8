package comap

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
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
// and starts the next segment.
func (w *refSegmentWriter) seal(stage string) []byte {
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
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	w.local = symtab.New(0)
	w.body = w.body[:0]
	w.count = 0
	return frame
}

// noSyncFS is the real filesystem with fsync skipped: the byte-identity
// check below seals thousands of durable windows and needs their
// frames, not their crash safety.
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
// every window frame must be identical. The checkpoint records between
// them must sit exactly on flush boundaries — record i after the
// windows of flush i+1, carrying that flush's cursor — and the log must
// end in a complete record.
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
			// The fingerprint RunContext stamps: defaults applied, clock
			// still at the epoch (it moves during the run).
			c.defaults()
			fp := c.fingerprint()
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
			// Recovery over the finished log lists its checkpoint records
			// and leaves the complete log as it is.
			w, res, err := traceroute.OpenDurableSegmentLog(logPath, fp, segfault.OS)
			if err != nil {
				t.Fatal(err)
			}
			if w != nil || !res.Complete {
				t.Fatalf("finished log does not recover as complete: %+v", res)
			}
			cps := res.Checkpoints

			r, err := traceroute.OpenSegmentLog(logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ref := newRefSegmentWriter()
			off, windows, paths, ci := 8, 0, 0, 0
			// skipRecords steps over the checkpoint records at off, checking
			// each is the next one recovery listed and covers exactly the
			// paths the windows before it hold.
			skipRecords := func() {
				for ci < len(cps) && cps[ci].Offset == int64(off) {
					if cps[ci].Paths != paths {
						t.Fatalf("checkpoint %d at offset %d records %d paths, the windows before it hold %d", ci, off, cps[ci].Paths, paths)
					}
					off += 8 + int(binary.LittleEndian.Uint32(got[off:]))
					ci++
				}
			}
			var seg traceroute.Segment
			for {
				skipRecords()
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
				frame := ref.seal(seg.Stage)
				if !bytes.Equal(frame, got[off:min(len(got), off+len(frame))]) {
					t.Fatalf("window %d (stage %s, %d traces) at offset %d differs from the interning reference", windows, seg.Stage, seg.NumTraces(), off)
				}
				off += len(frame)
				windows++
				paths += seg.NumTraces()
			}
			if windows < 2 {
				t.Fatalf("campaign sealed %d windows; the check needs several", windows)
			}
			if off != len(got) || ci != len(cps) || res.Windows != windows {
				t.Fatalf("log is %d bytes with %d windows and %d checkpoint records; the walk matched %d bytes, %d windows, %d records",
					len(got), res.Windows, len(cps), off, windows, ci)
			}
			// Records are flush boundaries: record i carries flush i+1's
			// cursor, and the final complete record repeats the last one.
			for i, cp := range cps {
				var cur resumeCursor
				if err := json.Unmarshal(cp.State, &cur); err != nil {
					t.Fatalf("checkpoint %d state: %v", i, err)
				}
				if want := min(i+1, len(cps)-1); cur.Flush != want || cur.Paths != cp.Paths {
					t.Fatalf("checkpoint %d carries flush %d with %d paths, want flush %d with %d", i, cur.Flush, cur.Paths, want, cp.Paths)
				}
			}
			t.Logf("log: %d bytes, %d windows, %d checkpoint records", len(got), windows, len(cps))
		})
	}
}
