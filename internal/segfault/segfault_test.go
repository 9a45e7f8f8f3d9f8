package segfault

import (
	"errors"
	"path/filepath"
	"testing"
)

func writeLog(t *testing.T, fs FS, path string, chunks [][]byte) error {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "traces.seg")
	if err := writeLog(t, OS, log, [][]byte{[]byte("abc"), []byte("def")}); err != nil {
		t.Fatalf("writeLog: %v", err)
	}
	got, err := OS.ReadFile(log)
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	n, err := OS.Size(log)
	if err != nil || n != 6 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := OS.Truncate(log, 3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	f, err := OS.OpenAppend(log)
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	if _, err := f.Write([]byte("XY")); err != nil {
		t.Fatalf("append write: %v", err)
	}
	f.Close()
	got, _ = OS.ReadFile(log)
	if string(got) != "abcXY" {
		t.Fatalf("after truncate+append = %q, want abcXY", got)
	}
}

func TestCrashOnLogSync(t *testing.T) {
	dir := t.TempDir()
	fs := Inject(OS, Plan{CrashOnLogSync: 2})
	log := filepath.Join(dir, "traces.seg")
	err := writeLog(t, fs, log, [][]byte{[]byte("w1"), []byte("w2"), []byte("w3")})
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() = false after crash point fired")
	}
	// Everything after the crash fails with ErrCrash.
	if _, err := fs.ReadFile(log); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash ReadFile = %v, want ErrCrash", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "other.seg")); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash Create = %v, want ErrCrash", err)
	}
	if err := fs.Truncate(log, 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash Truncate = %v, want ErrCrash", err)
	}
	// The first write was synced before the crash; the second was
	// written but never synced, so the crash dropped it.
	got, err := OS.ReadFile(log)
	if err != nil {
		t.Fatalf("ReadFile via OS: %v", err)
	}
	if string(got) != "w1" {
		t.Fatalf("durable content = %q, want exactly the synced prefix w1", got)
	}
}

func TestCrashOnLogWriteTearsDeterministically(t *testing.T) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	tornLen := func(seed uint64) int {
		dir := t.TempDir()
		fs := Inject(OS, Plan{Seed: seed, CrashOnLogWrite: 2})
		log := filepath.Join(dir, "traces.seg")
		err := writeLog(t, fs, log, [][]byte{[]byte("w1"), payload})
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("seed %d: want ErrCrash, got %v", seed, err)
		}
		got, err := OS.ReadFile(log)
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if string(got[:2]) != "w1" {
			t.Fatalf("seed %d: first write lost: %q", seed, got[:2])
		}
		torn := got[2:]
		if len(torn) >= len(payload) {
			t.Fatalf("seed %d: torn write persisted fully (%d bytes)", seed, len(torn))
		}
		for i, b := range torn {
			if b != payload[i] {
				t.Fatalf("seed %d: torn byte %d = %d, want %d", seed, i, b, payload[i])
			}
		}
		return len(torn)
	}
	a1, a2 := tornLen(7), tornLen(7)
	if a1 != a2 {
		t.Fatalf("same seed tore at %d then %d bytes; want deterministic", a1, a2)
	}
	if b := tornLen(99); b == a1 {
		t.Logf("seeds 7 and 99 tore at the same offset (%d); possible but unlikely", b)
	}
}

func TestTransientFaults(t *testing.T) {
	dir := t.TempDir()
	fs := Inject(OS, Plan{FailLogSync: 1, ShortWrite: 2})
	log := filepath.Join(dir, "traces.seg")
	f, err := fs.Create(log)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("abcd")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1 = %v, want ErrInjected", err)
	}
	if errors.Is(f.Sync(), ErrInjected) {
		t.Fatal("sync 2 should succeed (fault is one-shot)")
	}
	n, err := f.Write([]byte("efgh"))
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("short write = (%d, %v), want (2, ErrInjected)", n, err)
	}
	if fs.Crashed() {
		t.Fatal("transient faults must not latch the crashed state")
	}
}
