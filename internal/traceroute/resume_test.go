package traceroute

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/segfault"
)

// durableWindows appends windows [from, to) to w, sealing and
// checkpointing after each, with symbols from syms. Windows overlap in
// the shared view slice so a resumed writer sees addresses the
// recovered prefix already holds — a wrong symbol count after recovery
// corrupts the replay or fails Append.
func durableWindows(w *SegmentWriter, syms *logSyms, views []TraceView, from, to int) error {
	for i := from; i < to; i++ {
		for _, tv := range views[i*3 : i*3+6] {
			if err := syms.append(w, "sweep", tv); err != nil {
				return err
			}
		}
		if err := w.Seal(); err != nil {
			return err
		}
		state := json.RawMessage(fmt.Sprintf(`{"win":%d}`, i))
		if err := w.Checkpoint(i+1, state); err != nil {
			return err
		}
	}
	return nil
}

const resumeTestWindows = 6

func resumeTestViews(store *HopStore) []TraceView {
	rng := rand.New(rand.NewSource(11))
	return randomTraces(rng, store, resumeTestWindows*3+3)
}

// writeReferenceLog writes the full uninterrupted durable log and
// returns the replayed trace fingerprints every kill-and-resume variant
// must reproduce.
func writeReferenceLog(t *testing.T, views []TraceView) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traces.seg")
	w, err := CreateDurableSegmentLog(path, "fp", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	if err := durableWindows(w, &logSyms{}, views, 0, resumeTestWindows); err != nil {
		t.Fatal(err)
	}
	if err := w.MarkComplete(resumeTestWindows, json.RawMessage(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return replayLog(t, path)
}

func TestDurableKillAndResume(t *testing.T) {
	var store HopStore
	views := resumeTestViews(&store)
	want := writeReferenceLog(t, views)

	// Each case kills the writer at a different point. wantWin is how
	// many sealed windows recovery must salvage; -1 means nothing
	// (fresh start).
	//
	// Every frame is one write and one sync, after the header's: for
	// window k (1-based), write and sync #2k seal the window and #2k+1
	// append its checkpoint record.
	cases := []struct {
		name    string
		plan    segfault.Plan
		wantWin int
	}{
		{"sync-crash-before-any-checkpoint", segfault.Plan{CrashOnLogSync: 2}, -1},
		{"sync-crash-window3", segfault.Plan{CrashOnLogSync: 8}, 3},
		{"sync-crash-last-window", segfault.Plan{CrashOnLogSync: 2 * resumeTestWindows}, resumeTestWindows - 1},
		// Tearing window k's frame salvages the k-1 before it.
		{"torn-write-window2", segfault.Plan{Seed: 7, CrashOnLogWrite: 4}, 1},
		{"torn-write-window4", segfault.Plan{Seed: 40, CrashOnLogWrite: 8}, 3},
		// Tearing window 3's checkpoint record, or crashing at its
		// fsync, leaves window 3 durable but uncheckpointed, so it is
		// dropped.
		{"torn-checkpoint-record3", segfault.Plan{Seed: 9, CrashOnLogWrite: 7}, 2},
		{"record-fsync-crash3", segfault.Plan{CrashOnLogSync: 7}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "traces.seg")
			fs := segfault.Inject(segfault.OS, tc.plan)
			w, err := CreateDurableSegmentLog(path, "fp", fs)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			err = durableWindows(w, &logSyms{}, views, 0, resumeTestWindows)
			if !errors.Is(err, segfault.ErrCrash) {
				t.Fatalf("campaign survived the fault plan: %v", err)
			}
			w.Close() // a dying process still drops its descriptors

			// Restart: a fresh FS (the crash latch dies with the process)
			// and a resume-or-fresh open.
			w2, res, err := OpenDurableSegmentLog(path, "fp", segfault.OS)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			from := 0
			if tc.wantWin < 0 {
				if res.Resumed {
					t.Fatalf("expected fresh start, got resume: %+v", res)
				}
			} else {
				if !res.Resumed || res.Windows != tc.wantWin {
					t.Fatalf("resume = %+v, want %d windows", res, tc.wantWin)
				}
				if res.Paths != tc.wantWin {
					t.Fatalf("resume paths = %d, want %d", res.Paths, tc.wantWin)
				}
				if n := len(res.Checkpoints); n != tc.wantWin {
					t.Fatalf("%d checkpoints survived, want %d", n, tc.wantWin)
				}
				for i, cp := range res.Checkpoints {
					if want := fmt.Sprintf(`{"win":%d}`, i); string(cp.State) != want || cp.Paths != i+1 {
						t.Fatalf("checkpoint %d = %d paths, state %s; want %d, %s", i, cp.Paths, cp.State, i+1, want)
					}
				}
				from = tc.wantWin
			}
			if err := durableWindows(w2, logSymsOf(t, path), views, from, resumeTestWindows); err != nil {
				t.Fatalf("resume append: %v", err)
			}
			if err := w2.MarkComplete(resumeTestWindows, json.RawMessage(`{"done":true}`)); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			got := replayLog(t, path)
			if len(got) != len(want) {
				t.Fatalf("resumed log replays %d traces, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace %d diverged after resume:\n got %s\nwant %s", i, got[i], want[i])
				}
			}

			// Third boot: the log is complete — no writer, replay only.
			w3, res3, err := OpenDurableSegmentLog(path, "fp", segfault.OS)
			if err != nil {
				t.Fatal(err)
			}
			if w3 != nil || !res3.Complete || res3.Windows != resumeTestWindows {
				t.Fatalf("complete reopen = writer %v, %+v", w3, res3)
			}
		})
	}
}

func TestDurableResumeRejectsForeignFingerprint(t *testing.T) {
	var store HopStore
	views := resumeTestViews(&store)
	path := filepath.Join(t.TempDir(), "traces.seg")
	w, err := CreateDurableSegmentLog(path, "fp-a", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	if err := durableWindows(w, &logSyms{}, views, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res, err := OpenDurableSegmentLog(path, "fp-b", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Resumed {
		t.Fatalf("resumed across a fingerprint change: %+v", res)
	}
	if n, _ := segfault.OS.Size(path); n != 8 {
		t.Fatalf("fresh log is %d bytes, want header only", n)
	}
}

// logFrames splits a log into its frames, as [start, end) offsets.
// The bytes must frame cleanly.
func logFrames(data []byte) [][2]int {
	var out [][2]int
	for off := 8; off < len(data); {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		out = append(out, [2]int{off, end})
		off = end
	}
	return out
}

// TestDurableResumeRejectsCorruptCheckpointRecord flips a byte of the
// last checkpoint record: recovery must resume at the record before it
// and cut the window the damaged record covered.
func TestDurableResumeRejectsCorruptCheckpointRecord(t *testing.T) {
	var store HopStore
	views := resumeTestViews(&store)
	path := filepath.Join(t.TempDir(), "traces.seg")
	w, err := CreateDurableSegmentLog(path, "fp", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	if err := durableWindows(w, &logSyms{}, views, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := logFrames(data) // window 0, record 0, window 1, record 1
	data[frames[3][0]+12] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, res, err := OpenDurableSegmentLog(path, "fp", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !res.Resumed || res.Windows != 1 || len(res.Checkpoints) != 1 || res.DroppedFrames != 2 {
		t.Fatalf("recovery from a corrupt last record = %+v, want 1 window, 1 checkpoint, 2 frames dropped", res)
	}
	if n, _ := segfault.OS.Size(path); n != int64(frames[1][1]) {
		t.Fatalf("recovered log is %d bytes, want %d (through checkpoint record 0)", n, frames[1][1])
	}
}

// TestRecoveryClassification damages every region of a sealed window
// and of a checkpoint record — bit-flips across the whole payload, both
// frame-header fields, and a truncation at every byte of the final
// window and the final record — and asserts the decode error class plus
// the exact number of windows recovery salvages.
func TestRecoveryClassification(t *testing.T) {
	var store HopStore
	views := resumeTestViews(&store)
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.seg")
	w, err := CreateDurableSegmentLog(path, "fp", segfault.OS)
	if err != nil {
		t.Fatal(err)
	}
	const nWin = 3
	if err := durableWindows(w, &logSyms{}, views, 0, nWin); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Frames alternate: window k at 2k, its checkpoint record at 2k+1.
	frames := logFrames(good)
	if len(frames) != 2*nWin {
		t.Fatalf("reference log has %d frames, want %d", len(frames), 2*nWin)
	}

	// check writes a damaged copy, asserts the sequential decoder's
	// error class, then asserts recovery salvages exactly wantWin
	// windows (or starts fresh for wantWin == 0: no checkpoint
	// precedes window 0).
	check := func(t *testing.T, data []byte, wantErr error, wantWin int) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "traces.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if derr := decodeAll(p); !errors.Is(derr, wantErr) {
			t.Fatalf("decode error = %v, want %v", derr, wantErr)
		}
		w2, res, err := OpenDurableSegmentLog(p, "fp", segfault.OS)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if w2 != nil {
			defer w2.Close()
		}
		switch {
		case wantWin == 0 && res.Resumed:
			t.Fatalf("salvaged %d windows from damage before any checkpoint", res.Windows)
		case wantWin > 0 && (!res.Resumed || res.Windows != wantWin):
			t.Fatalf("recovery = %+v, want %d windows", res, wantWin)
		}
	}

	// Damage to window k or to its record keeps the k windows before
	// it: the newest intact record is record k-1.
	for i, fr := range frames {
		name, win := fmt.Sprintf("win%d", i/2), i/2
		if i%2 == 1 {
			name = fmt.Sprintf("rec%d", i/2)
		}
		lo, hi := fr[0], fr[1]
		t.Run(name+"/flip-every-payload-byte", func(t *testing.T) {
			for off := lo + 8; off < hi; off++ {
				data := append([]byte(nil), good...)
				data[off] ^= 0x10
				check(t, data, ErrCorruptSegment, win)
			}
		})
		t.Run(name+"/flip-crc", func(t *testing.T) {
			data := append([]byte(nil), good...)
			data[lo+4] ^= 0x01
			check(t, data, ErrCorruptSegment, win)
		})
		t.Run(name+"/len-oversized", func(t *testing.T) {
			data := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(data[lo:], 1<<30)
			check(t, data, ErrTruncatedSegment, win)
		})
		t.Run(name+"/len-shrunk", func(t *testing.T) {
			data := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(data[lo:], uint32(hi-lo)-8-1)
			check(t, data, ErrCorruptSegment, win)
		})
	}
	// Truncate the log at every byte inside the final window and inside
	// the final record (the final frame): always a torn tail, always
	// salvaging the windows the record before it covers.
	lastWin, lastRec := frames[2*nWin-2], frames[2*nWin-1]
	t.Run("truncate-every-final-window-byte", func(t *testing.T) {
		for cut := lastWin[0] + 1; cut < lastWin[1]; cut++ {
			check(t, good[:cut], ErrTruncatedSegment, nWin-1)
		}
	})
	t.Run("truncate-every-final-frame-byte", func(t *testing.T) {
		for cut := lastRec[0] + 1; cut < lastRec[1]; cut++ {
			check(t, good[:cut], ErrTruncatedSegment, nWin-1)
		}
	})
	// Truncating exactly at a frame boundary is a clean-looking log
	// that simply misses frames; recovery still resumes at the last
	// record left.
	t.Run("truncate-at-boundary", func(t *testing.T) {
		check(t, good[:lastWin[0]], nil, nWin-1)
		check(t, good[:lastRec[0]], nil, nWin-1)
	})
}
