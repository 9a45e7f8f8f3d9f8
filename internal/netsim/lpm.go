package netsim

import (
	"net/netip"

	"repro/internal/prefixset"
)

// The live FIB is a compiled prefix-set trie (see trieFIB below): one
// path-compressed walk per lookup instead of one masked-map probe per
// distinct declared bit length, which is what lets topogen's scaled
// route tables (hundreds of thousands of subscriber /24 equivalents
// plus the general owner set) resolve at near-constant cost. The
// masked-per-length lpmIndex it replaced lives on in lpm_ref_test.go,
// unchanged, as the independently-implemented reference the
// differential fuzz test (lpm_diff_test.go, run by `make fib-diff`
// inside `make verify`) checks the trie against.
//
// The v4 /24 shortcut map (Network.prefix24) stays a separate front-end
// table consulted before either index, preserving the legacy resolution
// order: a /24 declared through the shortcut wins over any owner in the
// general set, and only a miss falls through to longest-first matching.

// trieFIB is the compiled trie over the declared prefix owners, built
// once per topology (lazily, on the first probe that needs it) and
// dropped whenever AddPrefix mutates the owner set; the build is
// deterministic, so racing builders produce equivalent FIBs and the
// first published copy wins (same contract as the SPT cache).
type trieFIB struct {
	trie *prefixset.Compiled
	// owners pins the slice the trie's int32 values index into; a
	// later AddPrefix may grow (and reallocate) Network.prefixOwners,
	// but it also invalidates this FIB, so the pinned header is never
	// stale while reachable.
	owners []prefixOwner
}

// buildTrieFIB compiles the general (non-shortcut) owner list into a
// trie keyed by prefix with the owner's index as the value.
// First-declaration-wins on identical prefixes, matching buildLPM (and
// the linear scan both descend from).
func buildTrieFIB(owners []prefixOwner) *trieFIB {
	var t prefixset.Table
	for i := range owners {
		t.PutIfAbsent(owners[i].prefix.Masked(), int32(i))
	}
	return &trieFIB{trie: t.Compile(), owners: owners}
}

// lookup returns the longest-prefix owner covering dst, or nil.
func (f *trieFIB) lookup(dst netip.Addr) *prefixOwner {
	idx, ok := f.trie.Lookup(dst)
	if !ok {
		return nil
	}
	return &f.owners[idx]
}

// lpm returns the compiled FIB, building it on first use.
func (n *Network) lpm() *trieFIB {
	if x := n.fib.Load(); x != nil {
		return x
	}
	x := buildTrieFIB(n.prefixOwners)
	n.fib.CompareAndSwap(nil, x)
	return n.fib.Load()
}

// invalidateFIB drops the compiled FIB; the next lookup rebuilds it.
func (n *Network) invalidateFIB() {
	n.fib.Store(nil)
}
