package prefixset

import "net/netip"

// Set is a mutable address set represented as prefixes in a pair of
// path-compressed tries (one per family). The set's semantics are over
// addresses: two Sets storing different prefix decompositions of the
// same address space are Equal, and Aggregate canonicalizes any Set to
// its minimal prefix list. The zero value is an empty set ready to
// use. Not safe for concurrent mutation; Compile for the lock-free
// read side.
type Set struct {
	v4, v6 trie
}

// NewSet returns an empty set pre-seeded with the given prefixes.
func NewSet(prefixes ...netip.Prefix) *Set {
	s := &Set{}
	for _, p := range prefixes {
		s.Add(p)
	}
	return s
}

func (s *Set) tree(v4 bool) *trie {
	if v4 {
		return &s.v4
	}
	return &s.v6
}

// Add inserts a prefix; adding a stored prefix is a no-op. Returns s
// for chaining.
func (s *Set) Add(p netip.Prefix) *Set {
	k, _ := keyOf(p.Addr())
	t := s.tree(p.Addr().Is4())
	var added bool
	t.root, added = insert(t.root, k, uint8(p.Bits()), 0, false)
	if added {
		t.n++
	}
	return s
}

// AddAddr inserts a single address (a full-width prefix).
func (s *Set) AddAddr(a netip.Addr) *Set {
	return s.Add(netip.PrefixFrom(a, a.BitLen()))
}

// Len is the number of stored prefixes (not covered addresses; a Set
// holding 10.0.0.0/8 has Len 1).
func (s *Set) Len() int { return s.v4.n + s.v6.n }

// Contains reports whether the address is covered by any stored
// prefix.
func (s *Set) Contains(a netip.Addr) bool {
	k, kb := keyOf(a)
	_, ok := lookup(s.tree(a.Is4()).root, k, kb)
	return ok
}

// Each walks the stored prefixes in canonical order (a prefix before
// any longer prefix inside it; disjoint prefixes in ascending address
// order), stopping early if f returns false.
func (s *Set) Each(f func(netip.Prefix) bool) {
	if !each(s.v4.root, true, f) {
		return
	}
	each(s.v6.root, false, f)
}

// Prefixes returns the stored prefixes in canonical order.
func (s *Set) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, s.Len())
	s.Each(func(p netip.Prefix) bool { out = append(out, p); return true })
	return out
}

// EachAddr enumerates every covered address in strictly ascending
// order (v4 first), with overlap between stored prefixes collapsed.
// Only sane for sets covering a bounded address count — target lists,
// not announced pools.
func (s *Set) EachAddr(f func(netip.Addr) bool) {
	walk := func(t *trie, v4 bool) bool {
		width := uint8(32)
		if !v4 {
			width = 128
		}
		ok := true
		eachAggregated(t.root, width, func(k key, b uint8) bool {
			cur := k
			for {
				if !f(cur.addr(v4)) {
					ok = false
					return false
				}
				nx, carry := cur.next(v4)
				if !carry {
					return true
				}
				// Stop once the increment leaves the span.
				if commonBits(nx, k, b) < b {
					return true
				}
				cur = nx
			}
		})
		return ok
	}
	if !walk(&s.v4, true) {
		return
	}
	walk(&s.v6, false)
}

// Addrs materializes EachAddr.
func (s *Set) Addrs() []netip.Addr {
	var out []netip.Addr
	s.EachAddr(func(a netip.Addr) bool { out = append(out, a); return true })
	return out
}

// Union returns a new set covering every address in s or o.
func (s *Set) Union(o *Set) *Set {
	out := NewSet()
	s.Each(func(p netip.Prefix) bool { out.Add(p); return true })
	o.Each(func(p netip.Prefix) bool { out.Add(p); return true })
	return out
}

// Intersect returns a new set covering exactly the addresses in both s
// and o. Each emitted prefix comes from whichever side was longer
// (more specific) over the overlap.
func (s *Set) Intersect(o *Set) *Set {
	out := NewSet()
	s.Each(func(p netip.Prefix) bool {
		v4 := p.Addr().Is4()
		k, _ := keyOf(p.Addr())
		coveredWithin(o.tree(v4).root, k.masked(uint8(p.Bits())), uint8(p.Bits()), v4,
			func(q netip.Prefix) bool { out.Add(q); return true })
		return true
	})
	return out
}

// Diff returns a new set covering the addresses in s but not in o,
// expressed as the maximal prefixes of each s-prefix that dodge o's
// coverage (prefix splitting).
func (s *Set) Diff(o *Set) *Set {
	out := NewSet()
	s.Each(func(p netip.Prefix) bool {
		v4 := p.Addr().Is4()
		k, _ := keyOf(p.Addr())
		width := uint8(32)
		if !v4 {
			width = 128
		}
		minus(k.masked(uint8(p.Bits())), uint8(p.Bits()), width, o.tree(v4).root, v4,
			func(q netip.Prefix) bool { out.Add(q); return true })
		return true
	})
	return out
}

// Aggregate returns the canonical minimal form: redundant (covered)
// prefixes dropped and complete sibling pairs merged bottom-up, so
// two /25 halves become their /24 and a /32 inside a stored /24
// disappears. Equal address sets aggregate to identical prefix lists.
func (s *Set) Aggregate() *Set {
	out := NewSet()
	emit := func(v4 bool) func(k key, b uint8) bool {
		return func(k key, b uint8) bool { out.Add(k.prefix(b, v4)); return true }
	}
	eachAggregated(s.v4.root, 32, emit(true))
	eachAggregated(s.v6.root, 128, emit(false))
	return out
}

// Equal reports address-set equality (independent of stored
// decomposition).
func (s *Set) Equal(o *Set) bool {
	a, b := s.Aggregate().Prefixes(), o.Aggregate().Prefixes()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compile freezes the set into its immutable lookup form.
func (s *Set) Compile() *Compiled { return compile(&s.v4, &s.v6) }

// eachAggregated emits the maximal covered spans of the subtree in
// ascending address order: the canonical disjoint decomposition of the
// covered address space. width is kept for symmetry with the family
// walkers (span fullness itself is derivable from node depths alone).
func eachAggregated(n *node, width uint8, f func(k key, b uint8) bool) bool {
	_ = width
	return emitSpans(n, f)
}

// isFull reports whether n's entire span is covered: n terminates a
// stored prefix, or both exact halves (children at bits+1 — path
// compression means a child may sit deeper, a smaller span) are full.
func isFull(n *node) bool {
	if n == nil {
		return false
	}
	if n.has {
		return true
	}
	c0, c1 := n.child[0], n.child[1]
	return c0 != nil && c1 != nil &&
		c0.bits == n.bits+1 && c1.bits == n.bits+1 &&
		isFull(c0) && isFull(c1)
}

// emitSpans emits the maximal covered spans under n, in ascending
// address order; a full subtree emits exactly its own span, so
// complete sibling pairs merge bottom-up and covered detail below a
// stored prefix disappears.
func emitSpans(n *node, f func(k key, b uint8) bool) bool {
	if n == nil {
		return true
	}
	if isFull(n) {
		return f(n.k, n.bits)
	}
	// Not full and no terminal here, so both children exist.
	return emitSpans(n.child[0], f) && emitSpans(n.child[1], f)
}

// coveredWithin emits the maximal subprefixes of (k, b) covered by the
// address set under n: the whole of (k, b) when an ancestor terminal
// covers it, otherwise every covered span inside it.
func coveredWithin(n *node, k key, b uint8, v4 bool, f func(netip.Prefix) bool) bool {
	for n != nil && n.bits < b {
		if commonBits(n.k, k, n.bits) < n.bits {
			return true // disjoint
		}
		if n.has {
			return f(k.prefix(b, v4)) // ancestor covers all of p
		}
		n = n.child[k.bit(n.bits)]
	}
	if n == nil || commonBits(n.k, k, b) < b {
		return true
	}
	// n's subtree sits at or below p: emit its covered spans.
	width := uint8(32)
	if !v4 {
		width = 128
	}
	return eachAggregated(n, width, func(sk key, sb uint8) bool {
		return f(sk.prefix(sb, v4))
	})
}

// minus emits the maximal subprefixes of (k, b) NOT covered by the
// address set under n, in ascending order.
func minus(k key, b, width uint8, n *node, v4 bool, f func(netip.Prefix) bool) bool {
	if n == nil {
		return f(k.prefix(b, v4))
	}
	limit := b
	if n.bits < limit {
		limit = n.bits
	}
	if commonBits(k, n.k, limit) < limit {
		// Disjoint: nothing under n touches p.
		return f(k.prefix(b, v4))
	}
	if n.bits <= b {
		if n.has {
			return true // fully covered
		}
		if n.bits == b {
			return minusChildren(k, b, width, n, v4, f)
		}
		return minus(k, b, width, n.child[k.bit(n.bits)], v4, f)
	}
	// n sits strictly inside p: split p one level; the half that
	// branches away from n's key is wholly uncovered (n's subtree is
	// the only coverage inside p), the half containing n recurses.
	for i := 0; i < 2; i++ {
		half := k.withBit(b, i)
		if i == n.k.bit(b) {
			if !minus(half, b+1, width, n, v4, f) {
				return false
			}
		} else if !f(half.prefix(b+1, v4)) {
			return false
		}
	}
	return true
}

// minusChildren subtracts n's children from p == n's span (n itself
// stores no terminal here).
func minusChildren(k key, b, width uint8, n *node, v4 bool, f func(netip.Prefix) bool) bool {
	if b >= width {
		// Full-width prefix with no terminal at n: nothing below can
		// exist, so p is uncovered.
		return f(k.prefix(b, v4))
	}
	for i := 0; i < 2; i++ {
		half := k.withBit(b, i)
		if !minus(half, b+1, width, n.child[i], v4, f) {
			return false
		}
	}
	return true
}
