package symtab

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Remap serialization: the binary form of the []Sym translation table
// Merge returns. The streaming campaign engine's spill segments encode
// hop addresses as segment-local symbols and carry the local→global
// remap in each frame, so a sequential reader rebuilds the log-level
// table without re-hashing a single string — the on-disk analogue of
// the shard-merge discipline the parallel pipeline already relies on.
//
// Encoding: uvarint count, then one uvarint per entry, delta-coded
// against the previous entry (zig-zag, since remaps are usually
// ascending runs with small jumps). Little-endian throughout, matching
// the segment log's framing.

// ErrBadRemap is the named decode failure for a malformed remap block.
var ErrBadRemap = errors.New("symtab: malformed remap encoding")

// AppendRemap appends the serialized form of remap to dst and returns
// the extended slice.
func AppendRemap(dst []byte, remap []Sym) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(remap)))
	prev := int64(0)
	for _, s := range remap {
		d := int64(s) - prev
		dst = binary.AppendUvarint(dst, uint64((d<<1)^(d>>63))) // zig-zag
		prev = int64(s)
	}
	return dst
}

// DecodeRemap decodes a remap block produced by AppendRemap from the
// front of b, returning the remap and the unconsumed remainder. The
// count is bounded by len(b) (every entry costs at least one byte), so
// a corrupt length cannot force a huge allocation.
func DecodeRemap(b []byte) ([]Sym, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: count", ErrBadRemap)
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return nil, nil, fmt.Errorf("%w: count %d exceeds buffer", ErrBadRemap, count)
	}
	remap := make([]Sym, count)
	prev := int64(0)
	for i := range remap {
		z, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: entry %d", ErrBadRemap, i)
		}
		b = b[n:]
		d := int64(z>>1) ^ -int64(z&1) // un-zig-zag
		v := prev + d
		if v < 0 || v > int64(^uint32(0)) {
			return nil, nil, fmt.Errorf("%w: entry %d out of range", ErrBadRemap, i)
		}
		remap[i] = Sym(v)
		prev = v
	}
	return remap, b, nil
}
