// Package prefixset is the address-set algebra engine: a
// path-compressed binary trie over 128-bit-capable keys with set
// operations (union, intersection, difference, aggregation), canonical
// iteration, a value-carrying table variant, and a compiled immutable
// form for lookup-heavy consumers (the netsim FIB and the snapshot
// address index). One trie node per branching point — never one per
// bit — keeps a million-route table at a few million nodes of walk
// depth bounded by the key width, and the compiled form flattens the
// node graph into structure-of-arrays storage so a longest-prefix
// match is a handful of cache lines with zero pointer chasing.
//
// IPv4 and IPv6 never share a trie: v4 keys occupy the top 32 bits of
// a separate 32-bit-deep root, so a v4 lookup can never match a v6
// prefix or vice versa (the same family separation the per-bit-length
// masked tables enforced via Addr.Prefix errors). 4-in-6 mapped
// addresses are treated by their native bit length, matching
// netip.Prefix semantics throughout the repo.
package prefixset

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// key is an address value in trie bit order: bit 0 is the most
// significant bit of hi. IPv4 addresses occupy hi's top 32 bits and
// live in the 32-bit v4 trie; IPv6 uses the full 128 bits.
type key struct{ hi, lo uint64 }

// keyOf converts an address to its trie key and family width (32 or
// 128).
func keyOf(a netip.Addr) (key, uint8) {
	if a.Is4() {
		b := a.As4()
		return key{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}, 32
	}
	b := a.As16()
	return key{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:])}, 128
}

// masked zeroes every bit of k past the first b.
func (k key) masked(b uint8) key {
	switch {
	case b == 0:
		return key{}
	case b <= 64:
		return key{hi: k.hi & (^uint64(0) << (64 - b))}
	case b >= 128:
		return k
	default:
		return key{hi: k.hi, lo: k.lo & (^uint64(0) << (128 - b))}
	}
}

// bit returns bit i of k (0 = most significant).
func (k key) bit(i uint8) int {
	if i < 64 {
		return int(k.hi >> (63 - i) & 1)
	}
	return int(k.lo >> (127 - i) & 1)
}

// withBit returns k with bit i set to v, masked to i+1 bits.
func (k key) withBit(i uint8, v int) key {
	k = k.masked(i + 1)
	if v == 0 {
		return k.masked(i)
	}
	if i < 64 {
		k.hi |= 1 << (63 - i)
	} else {
		k.lo |= 1 << (127 - i)
	}
	return k
}

// commonBits counts the leading bits a and b share, capped at max.
func commonBits(a, b key, max uint8) uint8 {
	n := uint8(bits.LeadingZeros64(a.hi ^ b.hi))
	if n == 64 {
		n += uint8(bits.LeadingZeros64(a.lo ^ b.lo))
	}
	if n > max {
		n = max
	}
	return n
}

// prefix reconstructs the netip.Prefix for a key of b bits in the
// given family (v4 keys live in the top 32 bits).
func (k key) prefix(b uint8, v4 bool) netip.Prefix {
	if v4 {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(k.hi>>32))
		return netip.PrefixFrom(netip.AddrFrom4(buf), int(b))
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], k.hi)
	binary.BigEndian.PutUint64(buf[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(buf), int(b))
}

// addr reconstructs the address for a full-width key.
func (k key) addr(v4 bool) netip.Addr {
	if v4 {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(k.hi>>32))
		return netip.AddrFrom4(buf)
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], k.hi)
	binary.BigEndian.PutUint64(buf[8:], k.lo)
	return netip.AddrFrom16(buf)
}

// next returns the key one address after k at full family width, and
// ok=false on wraparound. Used by address iteration over small sets.
func (k key) next(v4 bool) (key, bool) {
	if v4 {
		v := uint32(k.hi >> 32)
		if v == ^uint32(0) {
			return key{}, false
		}
		return key{hi: uint64(v+1) << 32}, true
	}
	lo := k.lo + 1
	hi := k.hi
	if lo == 0 {
		hi++
		if hi == 0 {
			return key{}, false
		}
	}
	return key{hi: hi, lo: lo}, true
}

// PairKey4 packs an IPv4 (src, dst) pair into one injective uint64 —
// src in the high 32 bits, dst in the low 32 — for flat dedup sets.
// This is the single shared definition of the packed pair key the
// campaign flush dedup and the MPLS false-pair pass rely on; its bit
// layout is pinned by TestPairKey4Stability and must never change,
// since presized map footprints and the golden campaign digests were
// validated against it. ok is false for any non-IPv4 operand
// (including 4-in-6 mapped addresses, which As4 would accept but the
// historical open-coded Is4 guard rejected).
func PairKey4(src, dst netip.Addr) (uint64, bool) {
	if !src.Is4() || !dst.Is4() {
		return 0, false
	}
	s, d := src.As4(), dst.As4()
	return uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:])), true
}

// UnpackPairKey4 inverts PairKey4: it returns the IPv4 (src, dst) pair
// a packed key was built from.
func UnpackPairKey4(k uint64) (src, dst netip.Addr) {
	var s, d [4]byte
	binary.BigEndian.PutUint32(s[:], uint32(k>>32))
	binary.BigEndian.PutUint32(d[:], uint32(k))
	return netip.AddrFrom4(s), netip.AddrFrom4(d)
}
