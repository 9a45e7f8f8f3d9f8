package prefixset

import (
	"math/rand"
	"net/netip"
	"testing"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

// TestPairKey4Stability pins the packed pair-key bit layout — src in
// the high 32 bits, dst in the low 32, big-endian byte order — and
// round-trips every case through UnpackPairKey4. The campaign flush
// dedup and its presized map footprint were validated against exactly
// this layout; a change here would silently invalidate the golden
// campaign digests' performance envelope.
func TestPairKey4Stability(t *testing.T) {
	cases := []struct {
		src, dst string
		want     uint64
	}{
		{"0.0.0.0", "0.0.0.0", 0x0000000000000000},
		{"1.2.3.4", "5.6.7.8", 0x0102030405060708},
		{"255.255.255.255", "0.0.0.1", 0xFFFFFFFF00000001},
		{"10.0.0.1", "10.0.0.1", 0x0A0000010A000001},
		{"192.168.1.254", "172.16.254.1", 0xC0A801FEAC10FE01},
	}
	for _, c := range cases {
		got, ok := PairKey4(mustA(c.src), mustA(c.dst))
		if !ok || got != c.want {
			t.Errorf("PairKey4(%s, %s) = %#x, %v; want %#x, true", c.src, c.dst, got, ok, c.want)
		}
		if s, d := UnpackPairKey4(c.want); s != mustA(c.src) || d != mustA(c.dst) {
			t.Errorf("UnpackPairKey4(%#x) = %s, %s; want %s, %s", c.want, s, d, c.src, c.dst)
		}
	}
	// Non-v4 operands (including 4-in-6) must refuse, matching the
	// historical Is4 guard.
	if _, ok := PairKey4(mustA("::1"), mustA("1.2.3.4")); ok {
		t.Error("PairKey4 accepted a v6 src")
	}
	if _, ok := PairKey4(mustA("::ffff:1.2.3.4"), mustA("5.6.7.8")); ok {
		t.Error("PairKey4 accepted a 4-in-6 src")
	}
}

func TestSetAddContains(t *testing.T) {
	s := NewSet(mustP("10.0.0.0/8"), mustP("192.168.1.0/24"), mustP("2001:db8::/32"))
	for _, a := range []string{"10.1.2.3", "10.255.255.255", "192.168.1.77", "2001:db8::1"} {
		if !s.Contains(mustA(a)) {
			t.Errorf("Contains(%s) = false, want true", a)
		}
	}
	for _, a := range []string{"11.0.0.1", "192.168.2.1", "2001:db9::1"} {
		if s.Contains(mustA(a)) {
			t.Errorf("Contains(%s) = true, want false", a)
		}
	}
	// Family separation: a v4 address must never match a v6 prefix
	// covering its 4-in-6 image, and vice versa.
	s2 := NewSet(mustP("::ffff:0a00:0000/104"))
	if s2.Contains(mustA("10.1.2.3")) {
		t.Error("v4 address matched a v6 prefix")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := NewSet(mustP("10.0.0.0/8"), mustP("10.0.0.0/8")).Len(); got != 1 {
		t.Errorf("duplicate Add counted: Len = %d, want 1", got)
	}
}

func TestSetEachCanonicalOrder(t *testing.T) {
	s := NewSet(
		mustP("10.0.1.0/24"), mustP("10.0.0.0/16"), mustP("9.0.0.0/8"),
		mustP("10.0.1.128/25"), mustP("172.16.0.0/12"),
	)
	want := []string{"9.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.0.1.128/25", "172.16.0.0/12"}
	got := s.Prefixes()
	if len(got) != len(want) {
		t.Fatalf("got %d prefixes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Prefixes()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestAggregate(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		// Exact sibling halves merge, recursively.
		{[]string{"10.0.0.0/25", "10.0.0.128/25"}, []string{"10.0.0.0/24"}},
		{[]string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}, []string{"10.0.0.0/22"}},
		// Covered detail disappears.
		{[]string{"10.0.0.0/8", "10.1.2.0/24", "10.9.9.9/32"}, []string{"10.0.0.0/8"}},
		// Non-siblings never merge.
		{[]string{"10.0.1.0/24", "10.0.2.0/24"}, []string{"10.0.1.0/24", "10.0.2.0/24"}},
		// Merge then the pair is covered by nothing further.
		{[]string{"0.0.0.0/1", "128.0.0.0/1"}, []string{"0.0.0.0/0"}},
	}
	for _, c := range cases {
		in := NewSet()
		for _, p := range c.in {
			in.Add(mustP(p))
		}
		got := in.Aggregate().Prefixes()
		if len(got) != len(c.want) {
			t.Errorf("Aggregate(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Errorf("Aggregate(%v)[%d] = %s, want %s", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestEachAddrOrderedAndDeduped(t *testing.T) {
	s := NewSet(mustP("10.0.0.0/30"), mustP("10.0.0.2/32"), mustP("10.0.0.8/31"))
	want := []string{"10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.8", "10.0.0.9"}
	got := s.Addrs()
	if len(got) != len(want) {
		t.Fatalf("Addrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Addrs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// brute is the oracle: an explicit membership function over a bounded
// universe.
type brute func(a netip.Addr) bool

func bruteOf(ps []netip.Prefix) brute {
	return func(a netip.Addr) bool {
		for _, p := range ps {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
}

// universe16 enumerates 10.7.x.y — 65536 addresses, small enough to
// brute-force every set-algebra law against.
func universe16(f func(a netip.Addr)) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			f(netip.AddrFrom4([4]byte{10, 7, byte(x), byte(y)}))
		}
	}
}

func randomPrefixes(rng *rand.Rand, n int) []netip.Prefix {
	out := make([]netip.Prefix, 0, n)
	for i := 0; i < n; i++ {
		bits := 18 + rng.Intn(15) // /18../32, all inside or overlapping 10.7/16
		a := netip.AddrFrom4([4]byte{10, 7, byte(rng.Intn(256)), byte(rng.Intn(256))})
		p, err := a.Prefix(bits)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TestSetAlgebraAgainstBruteForce drives Union/Intersect/Diff/
// Aggregate over seeded random prefix soups and checks membership of
// every address in the universe against the brute-force oracle.
func TestSetAlgebraAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		psA := randomPrefixes(rng, 2+rng.Intn(10))
		psB := randomPrefixes(rng, 2+rng.Intn(10))
		A, B := NewSet(psA...), NewSet(psB...)
		bA, bB := bruteOf(psA), bruteOf(psB)

		union := A.Union(B)
		inter := A.Intersect(B)
		diff := A.Diff(B)
		agg := A.Aggregate()

		universe16(func(a netip.Addr) {
			if got, want := union.Contains(a), bA(a) || bB(a); got != want {
				t.Fatalf("round %d: Union.Contains(%s) = %v, want %v", round, a, got, want)
			}
			if got, want := inter.Contains(a), bA(a) && bB(a); got != want {
				t.Fatalf("round %d: Intersect.Contains(%s) = %v, want %v", round, a, got, want)
			}
			if got, want := diff.Contains(a), bA(a) && !bB(a); got != want {
				t.Fatalf("round %d: Diff.Contains(%s) = %v, want %v", round, a, got, want)
			}
			if got, want := agg.Contains(a), bA(a); got != want {
				t.Fatalf("round %d: Aggregate.Contains(%s) = %v, want %v", round, a, got, want)
			}
		})

		// Aggregate must be canonical: disjoint, sorted, and stable
		// under re-aggregation.
		aggPs := agg.Prefixes()
		for i := 1; i < len(aggPs); i++ {
			if aggPs[i-1].Overlaps(aggPs[i]) {
				t.Fatalf("round %d: aggregate not disjoint: %s overlaps %s", round, aggPs[i-1], aggPs[i])
			}
			if !aggPs[i-1].Addr().Less(aggPs[i].Addr()) {
				t.Fatalf("round %d: aggregate out of order: %s before %s", round, aggPs[i-1], aggPs[i])
			}
		}
		if !agg.Aggregate().Equal(agg) {
			t.Fatalf("round %d: aggregate not a fixed point", round)
		}
	}
}

func TestTablePutGetDelete(t *testing.T) {
	var tb Table
	if _, ok := tb.Get(mustP("10.0.0.0/8")); ok {
		t.Fatal("Get on empty table succeeded")
	}
	tb.Put(mustP("10.0.0.0/8"), 1)
	tb.Put(mustP("10.0.0.0/16"), 2)
	tb.Put(mustP("10.0.0.0/24"), 3)
	if v, ok := tb.Lookup(mustA("10.0.0.9")); !ok || v != 3 {
		t.Errorf("Lookup(10.0.0.9) = %d, %v; want 3, true", v, ok)
	}
	if v, ok := tb.Lookup(mustA("10.0.9.9")); !ok || v != 2 {
		t.Errorf("Lookup(10.0.9.9) = %d, %v; want 2, true", v, ok)
	}
	if v, ok := tb.Lookup(mustA("10.9.9.9")); !ok || v != 1 {
		t.Errorf("Lookup(10.9.9.9) = %d, %v; want 1, true", v, ok)
	}
	if _, ok := tb.Lookup(mustA("11.0.0.1")); ok {
		t.Error("Lookup(11.0.0.1) matched")
	}
	if prev, existed := tb.Put(mustP("10.0.0.0/16"), 9); !existed || prev != 2 {
		t.Errorf("Put overwrite: prev=%d existed=%v; want 2, true", prev, existed)
	}
	if v, _ := tb.Get(mustP("10.0.0.0/16")); v != 9 {
		t.Errorf("Get after overwrite = %d, want 9", v)
	}
	if tb.PutIfAbsent(mustP("10.0.0.0/16"), 7) {
		t.Error("PutIfAbsent replaced an existing entry")
	}
	if v, _ := tb.Get(mustP("10.0.0.0/16")); v != 9 {
		t.Errorf("PutIfAbsent clobbered: Get = %d, want 9", v)
	}
	if !tb.Delete(mustP("10.0.0.0/16")) {
		t.Error("Delete of present prefix returned false")
	}
	if tb.Delete(mustP("10.0.0.0/16")) {
		t.Error("Delete of absent prefix returned true")
	}
	if v, ok := tb.Lookup(mustA("10.0.9.9")); !ok || v != 1 {
		t.Errorf("Lookup after delete = %d, %v; want 1, true (fell back to /8)", v, ok)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

// TestDeleteRestoresStructure: a table that stored and deleted a
// prefix must compile byte-identically to one that never saw it.
func TestDeleteRestoresStructure(t *testing.T) {
	var a, b Table
	for _, p := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "172.16.0.0/12"} {
		a.Put(mustP(p), 1)
		b.Put(mustP(p), 1)
	}
	a.Put(mustP("10.1.3.0/24"), 5)
	a.Put(mustP("192.168.0.0/16"), 6)
	a.Delete(mustP("10.1.3.0/24"))
	a.Delete(mustP("192.168.0.0/16"))
	ca, cb := a.Compile(), b.Compile()
	if ca.Nodes() != cb.Nodes() || ca.Len() != cb.Len() {
		t.Fatalf("structure differs: nodes %d vs %d, len %d vs %d",
			ca.Nodes(), cb.Nodes(), ca.Len(), cb.Len())
	}
	for i := 0; i < ca.Nodes(); i++ {
		if ca.hi[i] != cb.hi[i] || ca.lo[i] != cb.lo[i] || ca.bits[i] != cb.bits[i] ||
			ca.has[i] != cb.has[i] || ca.left[i] != cb.left[i] || ca.right[i] != cb.right[i] {
			t.Fatalf("node %d differs after delete round-trip", i)
		}
	}
}

// TestCompiledMatchesMutable: the compiled walk must agree with the
// mutable trie's lookup on random tables and random probes, v4 and v6.
func TestCompiledMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tb Table
	for i := 0; i < 4000; i++ {
		var a netip.Addr
		var bits int
		if i%5 == 0 {
			var b [16]byte
			rng.Read(b[:])
			b[0], b[1] = 0x20, 0x01
			a = netip.AddrFrom16(b)
			bits = 16 + rng.Intn(113)
		} else {
			a = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			bits = 8 + rng.Intn(25)
		}
		p, err := a.Prefix(bits)
		if err != nil {
			continue
		}
		tb.PutIfAbsent(p, int32(i))
	}
	c := tb.Compile()
	if c.Len() != tb.Len() {
		t.Fatalf("Compiled.Len = %d, Table.Len = %d", c.Len(), tb.Len())
	}
	for i := 0; i < 20000; i++ {
		var probe netip.Addr
		if i%4 == 0 {
			var b [16]byte
			rng.Read(b[:])
			b[0], b[1] = 0x20, 0x01
			probe = netip.AddrFrom16(b)
		} else {
			probe = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		}
		mv, mok := tb.Lookup(probe)
		cv, cok := c.Lookup(probe)
		if mv != cv || mok != cok {
			t.Fatalf("probe %s: mutable (%d,%v) != compiled (%d,%v)", probe, mv, mok, cv, cok)
		}
	}
}

func BenchmarkCompiledLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tb Table
	for i := 0; i < 100000; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		p, _ := a.Prefix(12 + rng.Intn(13))
		tb.PutIfAbsent(p, int32(i))
	}
	c := tb.Compile()
	probes := make([]netip.Addr, 1024)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	b.ReportMetric(float64(c.Nodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(probes[i%len(probes)])
	}
}

func BenchmarkTableBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		p netip.Prefix
		v int32
	}
	entries := make([]entry, 0, 100000)
	for i := 0; i < 100000; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		p, _ := a.Prefix(12 + rng.Intn(13))
		entries = append(entries, entry{p, int32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tb Table
		for _, e := range entries {
			tb.PutIfAbsent(e.p, e.v)
		}
		tb.Compile()
	}
}
