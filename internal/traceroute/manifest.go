// Manifest: the durable index over a segment log. The log alone says
// what was measured; the manifest says what is *known to be durable*
// and where collection can legally restart. It is rewritten via
// write-temp + fsync + rename after every sealed window and every
// checkpoint, so at any crash instant the manifest on disk is a
// complete, internally consistent description of some sealed prefix of
// the log — never a partial write.
//
// Resume trusts the intersection: a window counts only if the manifest
// records it AND its bytes decode with a matching CRC, and collection
// restarts at the newest checkpoint inside that validated prefix.
// Everything past the cut (torn frames, sealed-but-uncheckpointed
// windows from a crash between log fsync and manifest rename) is
// truncated away and re-measured — O(missing windows) of re-work, by
// construction.
package traceroute

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// manifestSchema is the manifest format version. It is part of the
// compatibility check, alongside the segment-log segVersion.
const manifestSchema = 1

// ErrBadManifest reports a manifest that fails decode or validation.
// Test with errors.Is.
var ErrBadManifest = errors.New("traceroute: bad manifest")

// SegmentRecord describes one sealed window of the log.
type SegmentRecord struct {
	// Offset is the byte offset of the frame header in the log.
	Offset int64 `json:"offset"`
	// Length is the full frame length (8-byte header + payload).
	Length int64 `json:"length"`
	// CRC is the frame's payload CRC32, duplicated from the log so
	// validation can match frames to records without trusting either
	// side alone.
	CRC uint32 `json:"crc"`
	// Stage is the collection stage the window belongs to.
	Stage string `json:"stage"`
	// Traces is the window's trace count.
	Traces int `json:"traces"`
}

// Checkpoint marks a log offset where collection may resume: a frame
// boundary at which the caller snapshotted its cursor (clock, probe
// ledger, breaker — whatever State carries; the log layer does not
// interpret it).
type Checkpoint struct {
	// Offset is the log length when the checkpoint was taken. Every
	// sealed window ends exactly at some checkpointable offset.
	Offset int64 `json:"offset"`
	// Paths counts the trace paths durable at this checkpoint, a cheap
	// cross-check the resuming caller asserts against its replay.
	Paths int `json:"paths"`
	// State is the caller's opaque cursor snapshot.
	State json.RawMessage `json:"state,omitempty"`
}

// Manifest is the JSON document describing a durable segment log.
type Manifest struct {
	// Schema is the manifest format version (manifestSchema).
	Schema int `json:"schema"`
	// SegVersion is the segment-log format version the log was written
	// with.
	SegVersion int `json:"seg_version"`
	// Fingerprint identifies the campaign configuration (seed, scale,
	// window size, fault plan, epoch — hashed by the caller). A resume
	// against a different fingerprint starts fresh: replaying another
	// campaign's windows would silently corrupt the inference.
	Fingerprint string `json:"fingerprint"`
	// Segments lists every sealed window, in log order.
	Segments []SegmentRecord `json:"segments"`
	// Checkpoints lists resume points, in log order.
	Checkpoints []Checkpoint `json:"checkpoints"`
	// Complete is set once collection finished: the log holds every
	// window and a resume replays instead of re-probing.
	Complete bool `json:"complete"`
}

// ManifestPath derives the manifest path for a segment log path
// ("traces.seg" -> "traces.manifest"). The temp file used during
// atomic rewrite is this path + ".tmp".
func ManifestPath(logPath string) string {
	return strings.TrimSuffix(logPath, ".seg") + ".manifest"
}

// DecodeManifest parses and validates manifest bytes. It never panics
// on hostile input; every failure wraps ErrBadManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Schema != manifestSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", ErrBadManifest, m.Schema, manifestSchema)
	}
	if m.SegVersion != segVersion {
		return nil, fmt.Errorf("%w: segment version %d, want %d", ErrBadManifest, m.SegVersion, segVersion)
	}
	// Segments must tile a contiguous region starting right after the
	// 8-byte log header.
	off := int64(8)
	for i, s := range m.Segments {
		if s.Offset != off {
			return nil, fmt.Errorf("%w: segment %d at offset %d, want %d", ErrBadManifest, i, s.Offset, off)
		}
		if s.Length < 9 || s.Traces < 1 {
			return nil, fmt.Errorf("%w: segment %d has length %d, %d traces", ErrBadManifest, i, s.Length, s.Traces)
		}
		off += s.Length
	}
	// Checkpoints must ascend and land on frame boundaries (the header
	// end or the end of some segment).
	bounds := map[int64]bool{8: true}
	end := int64(8)
	for _, s := range m.Segments {
		end = s.Offset + s.Length
		bounds[end] = true
	}
	prev := int64(-1)
	for i, c := range m.Checkpoints {
		if !bounds[c.Offset] {
			return nil, fmt.Errorf("%w: checkpoint %d offset %d is not a frame boundary", ErrBadManifest, i, c.Offset)
		}
		if c.Offset < prev || c.Paths < 0 {
			return nil, fmt.Errorf("%w: checkpoint %d (offset %d, paths %d) out of order", ErrBadManifest, i, c.Offset, c.Paths)
		}
		prev = c.Offset
	}
	if m.Complete && (len(m.Checkpoints) == 0 || m.Checkpoints[len(m.Checkpoints)-1].Offset != end) {
		return nil, fmt.Errorf("%w: complete without a final checkpoint at %d", ErrBadManifest, end)
	}
	return &m, nil
}

// encodeManifest is the inverse of DecodeManifest; indented so stray
// manifests are debuggable by eye. manifestEncoder produces the same
// bytes without re-encoding every record.
func encodeManifest(m *Manifest) []byte {
	return append(marshalIndent(m, ""), '\n')
}

func marshalIndent(v any, prefix string) []byte {
	data, err := json.MarshalIndent(v, prefix, "  ")
	if err != nil {
		// Manifest is plain data; MarshalIndent cannot fail on it.
		panic(fmt.Sprintf("traceroute: manifest encode: %v", err))
	}
	return data
}

// manifestEncoder renders encodeManifest's bytes for a manifest whose
// Segments and Checkpoints only grow. A durable log republishes its
// manifest after every sealed window and checkpoint, so re-encoding
// every record each time made a log's manifest cost quadratic in its
// window count. The encoder instead encodes each record once, the
// first time it sees it, and splices the stored bytes into the
// encoding of the manifest's scalar fields.
type manifestEncoder struct {
	segs, cps [][]byte
	buf       []byte
}

// encode returns the manifest's encoding, valid until the next call.
func (e *manifestEncoder) encode(m *Manifest) []byte {
	e.segs = encodeNew(e.segs, m.Segments)
	e.cps = encodeNew(e.cps, m.Checkpoints)
	shell := *m
	shell.Segments, shell.Checkpoints = nil, nil
	rest := encodeManifest(&shell)
	out := e.buf[:0]
	for _, list := range []struct {
		key   string
		isNil bool
		elems [][]byte
	}{
		{"\n  \"segments\": ", m.Segments == nil, e.segs},
		{"\n  \"checkpoints\": ", m.Checkpoints == nil, e.cps},
	} {
		// A newline cannot occur unescaped inside a JSON string, so
		// the key is found at its structural position.
		i := bytes.Index(rest, []byte(list.key)) + len(list.key)
		out = append(out, rest[:i]...)
		rest = rest[i+len("null"):]
		switch {
		case list.isNil:
			out = append(out, "null"...)
		case len(list.elems) == 0:
			out = append(out, "[]"...)
		default:
			out = append(out, '[')
			for j, el := range list.elems {
				if j > 0 {
					out = append(out, ',')
				}
				out = append(out, "\n    "...)
				out = append(out, el...)
			}
			out = append(out, "\n  ]"...)
		}
	}
	e.buf = append(out, rest...)
	return e.buf
}

// encodeNew extends enc, the encodings of a prefix of elems, to cover
// all of elems, each indented as an element of a top-level array.
func encodeNew[T any](enc [][]byte, elems []T) [][]byte {
	for _, v := range elems[len(enc):] {
		enc = append(enc, marshalIndent(v, "    "))
	}
	return enc
}
