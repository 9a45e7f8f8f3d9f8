package snapshot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/netip"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// encodeIndented is the reference encoding the service wrote per
// request before answers were pre-encoded: json.Encoder with
// SetIndent("", "  ").
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// mappedAddrs lists every interface address the snapshot maps, region
// by region.
func mappedAddrs(s *snapshot.Snapshot) []netip.Addr {
	var out []netip.Addr
	for _, name := range s.RegionNames() {
		for _, co := range s.RegionCOs(name) {
			out = append(out, co.Addrs...)
		}
	}
	return out
}

// checkServedAnswers holds every spliced answer to the reference
// encoding of the struct API's value: each mapped address, the /24 and
// /16 around it, the whole v4 space, an empty range, an IPv6 prefix and
// every region.
func checkServedAnswers(t *testing.T, s *snapshot.Snapshot) {
	t.Helper()
	prefixes := map[netip.Prefix]bool{
		netip.MustParsePrefix("0.0.0.0/0"):         true,
		netip.MustParsePrefix("203.0.113.0/24"):    true, // TEST-NET-3: an empty range
		netip.MustParsePrefix("2001:db8::/32"):     true,
		netip.MustParsePrefix("::ffff:0.0.0.0/96"): true,
	}
	addrs := mappedAddrs(s)
	if len(addrs) == 0 {
		t.Fatal("snapshot maps no addresses")
	}
	for _, a := range addrs {
		co, ok := s.LookupAddr(a)
		got, gotOK := s.AppendAddrJSON(nil, a)
		if !ok || !gotOK {
			t.Fatalf("%s: LookupAddr ok=%v, AppendAddrJSON ok=%v", a, ok, gotOK)
		}
		if want := encodeIndented(t, co); !bytes.Equal(got, want) {
			t.Fatalf("AppendAddrJSON(%s):\n%s\nwant:\n%s", a, got, want)
		}
		for _, bits := range []int{24, 16} {
			p, _ := a.Prefix(bits)
			prefixes[p] = true
		}
	}
	if got, ok := s.AppendAddrJSON([]byte("x"), netip.MustParseAddr("203.0.113.99")); ok || string(got) != "x" {
		t.Errorf("unmapped AppendAddrJSON = (%q, %v), want dst unchanged and false", got, ok)
	}
	for p := range prefixes {
		cos := s.LookupPrefix(p)
		if cos == nil {
			cos = []snapshot.CO{} // the service answers an empty range with []
		}
		if got, want := s.AppendPrefixJSON(nil, p), encodeIndented(t, cos); !bytes.Equal(got, want) {
			t.Fatalf("AppendPrefixJSON(%s):\n%s\nwant:\n%s", p, got, want)
		}
	}
	for _, name := range s.RegionNames() {
		rr, _ := s.Region(name)
		got, ok := s.RegionJSON(name)
		if want := encodeIndented(t, rr); !ok || !bytes.Equal(got, want) {
			t.Fatalf("RegionJSON(%s) differs from the encoded extract (ok=%v)", name, ok)
		}
	}
	if _, ok := s.RegionJSON("atlantis"); ok {
		t.Error("RegionJSON(atlantis) resolved")
	}
	t.Logf("%d addresses, %d prefixes, %d regions byte-identical", len(addrs), len(prefixes), len(s.RegionNames()))
}

// TestServedAnswersMatchEncoder: the bytes the service splices are the
// bytes json.Encoder would have written over the struct API, on the
// quickstart snapshot and on both operators' seed-7 paper-size
// snapshots.
func TestServedAnswersMatchEncoder(t *testing.T) {
	t.Run("quickstart", func(t *testing.T) {
		checkServedAnswers(t, buildQuickstart(t, quickstartResult(t)))
	})
	if testing.Short() {
		t.Skip("seed-7 paper-size studies skipped in -short mode")
	}
	st, err := core.NewStudy("cable", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, isp := range res.CableISPs {
		t.Run("seed7-1x/"+isp, func(t *testing.T) {
			s, err := snapshot.Build(snapshot.Meta{Study: "cable", ISP: isp, Seed: 7}, res.Cable[isp])
			if err != nil {
				t.Fatal(err)
			}
			checkServedAnswers(t, s)
		})
	}
}

// TestServedAnswerAllocs pins the per-request allocations of the
// pre-encoded lookup path into a buffer that already has room: none for
// a single CO or a region extract, and only the range walker's dedup
// bitset for a prefix.
func TestServedAnswerAllocs(t *testing.T) {
	s := buildQuickstart(t, quickstartResult(t))
	a := mappedAddrs(s)[0]
	p16, _ := a.Prefix(16)
	region := s.RegionNames()[0]
	buf := make([]byte, 0, 1<<20)
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"AppendAddrJSON", 0, func() { buf, _ = s.AppendAddrJSON(buf[:0], a) }},
		{"RegionJSON", 0, func() { s.RegionJSON(region) }},
		{"AppendPrefixJSON", 1, func() { buf = s.AppendPrefixJSON(buf[:0], p16) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, n, c.want)
		}
	}
}
