// Package segfault is the injectable filesystem seam under the durable
// spill-log writer. The crash-safety contract of the streaming campaign
// engine — a killed campaign resumes at the last checkpoint with
// bit-identical output — is only testable if tests can kill the writer
// at precise, reproducible points: at the fsync of the Nth frame (a
// sealed window or a checkpoint record), or halfway through a frame
// write (leaving a torn tail for the resume scan to truncate). The FS
// interface covers exactly the operations the writer and its recovery
// perform; OS is the passthrough implementation, and Inject wraps any
// FS with a deterministic fault plan keyed by the campaign seed.
//
// An injected crash is not a transient error: once a plan fires its
// crash point, every subsequent operation on the filesystem fails with
// ErrCrash, the way a dead process stops issuing syscalls. Callers
// simulate process death by letting the error propagate (the campaign
// engine returns spill errors from Campaign.RunContext, wrapping
// ErrCrash) and reopening the spill through a fresh FS — exactly the
// sequence a real restart performs.
package segfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrCrash is the sentinel every operation returns once a plan's crash
// point has fired. Test with errors.Is.
var ErrCrash = errors.New("segfault: injected crash")

// ErrInjected is the sentinel for non-fatal injected failures (a
// transient fsync error, a short write): the operation fails but the
// filesystem keeps working. Test with errors.Is.
var ErrInjected = errors.New("segfault: injected fault")

// File is the subset of *os.File the segment writer needs.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem surface of the durable spill path. *os.File
// satisfies File directly, so OS is a thin passthrough.
type FS interface {
	Create(path string) (File, error)
	// OpenAppend opens an existing file for writing at its current end
	// (resume reopens the truncated log this way).
	OpenAppend(path string) (File, error)
	ReadFile(path string) ([]byte, error)
	Size(path string) (int64, error)
	Truncate(path string, size int64) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error)   { return os.ReadFile(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (osFS) Size(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Plan describes deterministic faults. Counters are 1-based ordinals
// over the matching operations since the FS was built, across every
// file the FS opens (a durable campaign writes exactly one, its segment
// log); zero disables a fault.
type Plan struct {
	// Seed keys the torn-write split point, so different campaign seeds
	// tear frames at different byte offsets.
	Seed uint64
	// CrashOnLogSync crashes on the nth Sync of the segment log, first
	// discarding every byte written since the last successful sync (the
	// unsynced page-cache tail a power loss would eat). The durable
	// writer syncs the header once and then every frame once, so n maps
	// 1:1 onto frames: n=1 dies syncing the header, n=k+1 dies syncing
	// the log's kth frame (frames 1..k-1 durable).
	CrashOnLogSync int
	// CrashOnLogWrite crashes during the nth Write to the segment log,
	// persisting only a seeded prefix of the buffer — a torn tail for
	// the resume scan.
	CrashOnLogWrite int
	// FailLogSync makes the nth log Sync fail with ErrInjected without
	// entering the crashed state (a transient EIO).
	FailLogSync int
	// ShortWrite makes the nth log Write report fewer bytes than given
	// without crashing (exercises the writer's short-write handling).
	ShortWrite int
}

// Inject wraps under with a fault plan. The returned FS is safe for
// use from one goroutine at a time per file, like the writer itself;
// the shared counters are mutex-guarded so independent files may be
// driven from tests freely.
func Inject(under FS, plan Plan) *InjectFS {
	return &InjectFS{under: under, plan: plan}
}

// InjectFS is an FS that fails according to a Plan. See Inject.
type InjectFS struct {
	under FS
	plan  Plan

	mu        sync.Mutex
	logSyncs  int
	logWrites int
	crashed   bool
}

// Crashed reports whether the plan's crash point has fired.
func (f *InjectFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Counts reports the log-sync and log-write ordinals observed so far.
// Kill grids run one instrumented (non-crashing) pass first and derive
// their crash ordinals from these totals, so the grid tracks the
// workload instead of hard-coding operation counts.
func (f *InjectFS) Counts() (logSyncs, logWrites int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logSyncs, f.logWrites
}

// check returns ErrCrash when the FS is already dead.
func (f *InjectFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	return nil
}

func (f *InjectFS) crash() error {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
	return ErrCrash
}

func (f *InjectFS) Create(path string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	file, err := f.under.Create(path)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, f: file}, nil
}

func (f *InjectFS) OpenAppend(path string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	size, err := f.under.Size(path)
	if err != nil {
		return nil, err
	}
	file, err := f.under.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	// Bytes already on disk count as synced: resume only reopens logs
	// whose durable prefix it just validated.
	return &injectFile{fs: f, f: file, size: size, synced: size}, nil
}

func (f *InjectFS) ReadFile(path string) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.under.ReadFile(path)
}

func (f *InjectFS) Size(path string) (int64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.under.Size(path)
}

func (f *InjectFS) Truncate(path string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.under.Truncate(path, size)
}

// injectFile applies the plan's write/sync faults to one open file. It
// tracks the synced watermark so a sync crash can discard the unsynced
// tail, the way power loss discards the page cache.
type injectFile struct {
	fs     *InjectFS
	f      File
	size   int64
	synced int64
}

// mix is a splitmix64 step: the deterministic tear-point draw.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	return h
}

func (jf *injectFile) Write(p []byte) (int, error) {
	if err := jf.fs.check(); err != nil {
		return 0, err
	}
	fs := jf.fs
	fs.mu.Lock()
	fs.logWrites++
	n := fs.logWrites
	tear := fs.plan.CrashOnLogWrite > 0 && n == fs.plan.CrashOnLogWrite
	short := fs.plan.ShortWrite > 0 && n == fs.plan.ShortWrite
	seed := fs.plan.Seed
	fs.mu.Unlock()
	switch {
	case tear:
		// Persist a seeded prefix of this write on top of the synced
		// watermark, then die: the on-disk log ends inside a frame, which
		// is exactly the torn tail the resume path must classify and
		// truncate. Earlier unsynced writes are discarded first — a torn
		// frame survives a crash only as far as the storage got.
		jf.f.Truncate(jf.synced)
		jf.f.Seek(jf.synced, io.SeekStart)
		keep := 0
		if len(p) > 0 {
			keep = int(mix(seed, uint64(n)) % uint64(len(p)))
		}
		if keep > 0 {
			jf.f.Write(p[:keep])
			jf.f.Sync()
		}
		return keep, jf.fs.crash()
	case short:
		keep := len(p) / 2
		wrote, err := jf.f.Write(p[:keep])
		jf.size += int64(wrote)
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, wrote, len(p))
	}
	wrote, err := jf.f.Write(p)
	jf.size += int64(wrote)
	return wrote, err
}

func (jf *injectFile) Sync() error {
	if err := jf.fs.check(); err != nil {
		return err
	}
	fs := jf.fs
	fs.mu.Lock()
	fs.logSyncs++
	n := fs.logSyncs
	crash := fs.plan.CrashOnLogSync > 0 && n == fs.plan.CrashOnLogSync
	fail := fs.plan.FailLogSync > 0 && n == fs.plan.FailLogSync
	fs.mu.Unlock()
	if crash {
		// Model the conservative outcome: nothing written since the last
		// successful sync survives. The unsynced tail is dropped before
		// the crash latches.
		jf.f.Truncate(jf.synced)
		jf.f.Sync()
		return jf.fs.crash()
	}
	if fail {
		return fmt.Errorf("%w: fsync", ErrInjected)
	}
	if err := jf.f.Sync(); err != nil {
		return err
	}
	jf.synced = jf.size
	return nil
}

func (jf *injectFile) Close() error {
	// Close always reaches the real file so tests never leak
	// descriptors, but reports the crashed state.
	err := jf.f.Close()
	if cerr := jf.fs.check(); cerr != nil {
		return cerr
	}
	return err
}

func (jf *injectFile) Truncate(size int64) error {
	if err := jf.fs.check(); err != nil {
		return err
	}
	return jf.f.Truncate(size)
}

func (jf *injectFile) Seek(offset int64, whence int) (int64, error) {
	if err := jf.fs.check(); err != nil {
		return 0, err
	}
	return jf.f.Seek(offset, whence)
}
