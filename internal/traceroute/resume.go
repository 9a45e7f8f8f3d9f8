// Resume: reopening a durable segment log after a crash. A durable log
// is the only durable file: its windows and its checkpoint records
// (see segment.go) share one CRC-framed, append-only stream, and every
// frame is fsynced before the call that wrote it returns.
//
// Recovery is one forward scan. It keeps every frame up to the last
// checkpoint record that decodes, provided every frame before that
// record decodes too, and truncates everything after it. That one rule
// covers both ways a decodable window can be unusable: a window sealed
// after the last checkpoint has no record after it, so it is cut; and
// a log another campaign configuration wrote carries a foreign
// fingerprint in its records, so recovery starts fresh. Re-probing a
// window the disk already held is wasted work; replaying a window
// collection never cursored past is silent corruption. The rule wastes
// a little to corrupt nothing.
package traceroute

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/segfault"
)

// Checkpoint is one checkpoint record of a durable log: a frame
// boundary at which the caller snapshotted its cursor (clock, probe
// ledger, breaker — whatever State carries; the log layer does not
// interpret it).
type Checkpoint struct {
	// Offset is the record's log offset: the log length when the
	// checkpoint was taken.
	Offset int64
	// Paths counts the trace paths durable at this checkpoint, a cheap
	// cross-check the resuming caller asserts against its replay.
	Paths int
	// State is the caller's opaque cursor snapshot.
	State json.RawMessage
}

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
	// Windows counts the sealed windows kept in the log; re-collection
	// appends the next one.
	Windows int
	// DroppedFrames counts the frames recovery cut away: decodable
	// windows past the last checkpoint record, plus the damaged frame
	// that ended the scan, if any.
	DroppedFrames int
	// Paths is the durable trace-path count at the final surviving
	// checkpoint, the caller's replay cross-check.
	Paths int
}

// OpenDurableSegmentLog reopens (or creates) the durable segment log
// at path. If the log holds a checkpoint record for fingerprint, it
// truncates the log after the last usable record and returns a writer
// positioned to append the next window — or a nil writer when the log
// is complete. In every other case (no log, a foreign fingerprint,
// nothing salvageable) it starts a fresh log, never failing the
// campaign over a bad leftover.
func OpenDurableSegmentLog(path, fingerprint string, fsys segfault.FS) (*SegmentWriter, *Resume, error) {
	fresh := func(reason string) (*SegmentWriter, *Resume, error) {
		w, err := CreateDurableSegmentLog(path, fingerprint, fsys)
		if err != nil {
			return nil, nil, err
		}
		return w, &Resume{Reason: reason}, nil
	}

	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, segfault.ErrCrash) {
			return nil, nil, err
		}
		return fresh("no log")
	}
	if len(data) < 8 || string(data[:4]) != segMagic ||
		binary.LittleEndian.Uint16(data[4:]) != segVersion {
		return fresh("log header invalid")
	}

	// The scan decodes every frame (the reader classifies torn tails as
	// ErrTruncatedSegment and bad bytes as ErrCorruptSegment) and stops
	// at the first that fails. Each checkpoint record moves the cut to
	// its end and snapshots the log-global symbol count a writer
	// appending there continues from.
	r := &SegmentReader{data: data, off: 8}
	var seg Segment
	res := &Resume{}
	cut, nGlobal, windows := -1, 0, 0
	tail := "clean end of log"
	for {
		payload, ok, err := r.frame()
		if err == nil && !ok {
			break
		}
		if err == nil && isCheckpoint(payload) {
			cp, fp, done, derr := decodeCheckpoint(payload)
			if derr == nil && fp != fingerprint {
				return fresh("fingerprint mismatch: log belongs to a different campaign configuration")
			}
			if err = derr; err == nil {
				cp.Offset = int64(r.off)
				res.Checkpoints = append(res.Checkpoints, cp)
				res.Complete = done
				cut, nGlobal, res.Windows = r.off+8+len(payload), len(r.addrs), windows
			}
		} else if err == nil {
			if err = r.decodePayload(payload, &seg); err == nil {
				windows++
			}
		}
		if err != nil {
			tail = fmt.Sprintf("frame at offset %d: %v", r.off, err)
			res.DroppedFrames++
			break
		}
		r.off += 8 + len(payload)
	}
	if cut < 0 {
		return fresh(fmt.Sprintf("no checkpoint survived (%s)", tail))
	}
	res.Resumed = true
	res.DroppedFrames += windows - res.Windows
	res.Paths = res.Checkpoints[len(res.Checkpoints)-1].Paths
	if cut < len(data) {
		if err := fsys.Truncate(path, int64(cut)); err != nil {
			return nil, nil, err
		}
	}
	if res.Complete {
		res.Reason = "complete campaign log: replay, no re-collection"
		return nil, res, nil
	}
	res.Reason = fmt.Sprintf("recovered %d windows to checkpoint %d (%s); %d frames dropped",
		res.Windows, len(res.Checkpoints)-1, tail, res.DroppedFrames)

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	return &SegmentWriter{
		f:           f,
		bw:          bufio.NewWriterSize(f, 1<<16),
		nGlobal:     nGlobal,
		fsys:        fsys,
		fingerprint: fingerprint,
	}, res, nil
}

// decodeCheckpoint parses a checkpoint record's payload (isCheckpoint
// holds). The state is copied out, so the checkpoint does not pin the
// log bytes.
func decodeCheckpoint(payload []byte) (cp Checkpoint, fingerprint string, complete bool, err error) {
	b := payload[2:]
	if len(b) == 0 || b[0] > 1 {
		return cp, "", false, fmt.Errorf("%w: bad checkpoint flag", ErrCorruptSegment)
	}
	complete = b[0] == 1
	paths, b, err := uv(b[1:])
	if err != nil {
		return cp, "", false, err
	}
	fpLen, b, err := uv(b)
	if err != nil {
		return cp, "", false, err
	}
	if paths > 1<<48 || fpLen > uint64(len(b)) {
		return cp, "", false, fmt.Errorf("%w: checkpoint paths %d, fingerprint length %d", ErrCorruptSegment, paths, fpLen)
	}
	state := b[fpLen:]
	if len(state) > 0 && !json.Valid(state) {
		return cp, "", false, fmt.Errorf("%w: checkpoint state is not JSON", ErrCorruptSegment)
	}
	cp.Paths = int(paths)
	if len(state) > 0 {
		cp.State = append(json.RawMessage(nil), state...)
	}
	return cp, string(b[:fpLen]), complete, nil
}
