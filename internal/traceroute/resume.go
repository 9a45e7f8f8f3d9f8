// Resume: reopening a durable segment log after a crash. The recovery
// rule is deliberately narrow — a window counts only when the manifest
// records it AND its log bytes decode with the recorded CRC, and
// collection restarts at the newest checkpoint inside that doubly
// attested prefix. Anything else (a torn tail, a corrupt frame, sealed
// windows the manifest never learned about because the crash landed
// between log fsync and manifest rename) is truncated away and
// re-measured. Re-probing a window the disk already held is wasted
// work; replaying a window collection never cursored past is silent
// corruption. The rule wastes a little to corrupt nothing.
package traceroute

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/segfault"
)

// Resume reports what OpenDurableSegmentLog recovered.
type Resume struct {
	// Resumed is true when a prior campaign's durable prefix was
	// recovered; false means a fresh log was created (Reason says why).
	Resumed bool
	// Reason is a one-line human-readable account of the decision.
	Reason string
	// Complete is true when the log holds the whole finished campaign:
	// replay it, do not re-collect. The returned writer is nil.
	Complete bool
	// Checkpoints are the surviving resume points, in cursor order;
	// index i is the i-th flush the original run checkpointed.
	Checkpoints []Checkpoint
	// Windows counts validated sealed windows kept in the log.
	Windows int
	// FirstMissing is the index of the first window absent from the
	// log — equal to Windows; re-collection starts there.
	FirstMissing int
	// DroppedFrames counts sealed windows discarded during recovery
	// (torn, corrupt, or past the last usable checkpoint).
	DroppedFrames int
	// Paths is the durable trace-path count at the final surviving
	// checkpoint, the caller's replay cross-check.
	Paths int
}

// OpenDurableSegmentLog reopens (or creates) the durable segment log
// at path. If a manifest with a matching fingerprint and a valid log
// prefix exist, it truncates any unusable tail, rewrites the manifest
// to match, and returns a writer positioned to append the first
// missing window — or a nil writer when the log is complete. In every
// other case (no manifest, wrong fingerprint, nothing salvageable) it
// starts a fresh log, never failing the campaign over a bad leftover.
func OpenDurableSegmentLog(path, fingerprint string, fsys segfault.FS) (*SegmentWriter, *Resume, error) {
	fresh := func(reason string) (*SegmentWriter, *Resume, error) {
		w, err := CreateDurableSegmentLog(path, fingerprint, fsys)
		if err != nil {
			return nil, nil, err
		}
		return w, &Resume{Reason: reason}, nil
	}

	mdata, err := fsys.ReadFile(ManifestPath(path))
	if err != nil {
		if errors.Is(err, segfault.ErrCrash) {
			return nil, nil, err
		}
		return fresh("no manifest")
	}
	m, err := DecodeManifest(mdata)
	if err != nil {
		return fresh(fmt.Sprintf("manifest rejected: %v", err))
	}
	if m.Fingerprint != fingerprint {
		return fresh("fingerprint mismatch: log belongs to a different campaign configuration")
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, segfault.ErrCrash) {
			return nil, nil, err
		}
		return fresh("manifest without log")
	}
	if len(data) < 8 || string(data[:4]) != segMagic ||
		binary.LittleEndian.Uint16(data[4:]) != segVersion {
		return fresh("log header invalid")
	}

	// Walk the log against the manifest: each frame must decode (the
	// reader classifies torn tails as ErrTruncatedSegment and bad bytes
	// as ErrCorruptSegment) and must match its record's CRC, length,
	// stage, and trace count.
	r := &SegmentReader{data: data, off: 8, unmap: func() error { return nil }}
	var seg Segment
	validEnd := int64(8)
	frames := 0
	tail := "clean end of log"
	for frames < len(m.Segments) {
		rec := m.Segments[frames]
		ok, err := r.Next(&seg)
		if err != nil {
			tail = fmt.Sprintf("window %d: %v", frames, err)
			break
		}
		if !ok {
			tail = fmt.Sprintf("log ends before recorded window %d", frames)
			break
		}
		frameCRC := binary.LittleEndian.Uint32(data[validEnd+4:])
		if int64(r.off)-validEnd != rec.Length || frameCRC != rec.CRC ||
			seg.Stage != rec.Stage || seg.NumTraces() != rec.Traces {
			tail = fmt.Sprintf("window %d does not match its manifest record", frames)
			break
		}
		validEnd = int64(r.off)
		frames++
	}

	// Resume at the newest checkpoint inside the validated prefix; the
	// checkpoint's cursor is only meaningful for bytes it had cursored
	// past, so valid frames beyond it are discarded too.
	cut := int64(-1)
	nCheck := 0
	for i, c := range m.Checkpoints {
		if c.Offset <= validEnd {
			cut = c.Offset
			nCheck = i + 1
		}
	}
	if cut < 0 {
		return fresh(fmt.Sprintf("no checkpoint survived (%s)", tail))
	}
	kept := 0
	for kept < frames && m.Segments[kept].Offset+m.Segments[kept].Length <= cut {
		kept++
	}
	dropped := len(m.Segments) - kept
	wasComplete := m.Complete
	m.Segments = m.Segments[:kept]
	m.Checkpoints = m.Checkpoints[:nCheck]
	m.Complete = wasComplete && dropped == 0
	res := &Resume{
		Resumed:       true,
		Complete:      m.Complete,
		Checkpoints:   m.Checkpoints,
		Windows:       kept,
		FirstMissing:  kept,
		DroppedFrames: dropped,
		Paths:         m.Checkpoints[nCheck-1].Paths,
	}

	if m.Complete {
		res.Reason = "complete campaign log: replay, no re-collection"
		return nil, res, nil
	}
	res.Reason = fmt.Sprintf("recovered %d windows to checkpoint %d (%s); %d dropped",
		kept, nCheck-1, tail, dropped)

	// Make disk agree with the pruned manifest before handing out the
	// writer: truncate the tail, republish the manifest, and count the
	// log-global symbols of the kept prefix by replaying it.
	if err := fsys.Truncate(path, cut); err != nil {
		return nil, nil, err
	}
	r2 := &SegmentReader{data: data[:cut], off: 8, unmap: func() error { return nil }}
	for {
		ok, err := r2.Next(&seg)
		if err != nil {
			return nil, nil, fmt.Errorf("traceroute: validated prefix failed replay: %w", err)
		}
		if !ok {
			break
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	w := &SegmentWriter{
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<16),
		nGlobal:  len(r2.addrs),
		fsys:     fsys,
		logPath:  path,
		manifest: m,
		off:      cut,
	}
	if err := w.writeManifest(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, res, nil
}
