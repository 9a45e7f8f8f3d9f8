package comap

// Unit tests for the collection-stage heuristics over synthetic data.

import (
	"net/netip"
	"testing"

	"repro/internal/dnsdb"
	"repro/internal/probesched"
)

func TestFindFalsePairs(t *testing.T) {
	col := &Collection{
		Observed:    map[netip.Addr]bool{},
		FalsePairs:  map[[2]netip.Addr]bool{},
		DirectPairs: map[[2]netip.Addr]bool{},
		Paths: []Path{
			// Original trace: (ingress a) -> (egress b) appear adjacent.
			{Dst: a("203.0.113.1"), Reached: true,
				Hops: []netip.Addr{a("10.0.0.1"), a("10.0.0.2")},
				Gaps: []bool{false, false}},
			// DPR trace to b: the interior hop 10.0.0.9 appears between
			// them.
			{Dst: a("10.0.0.2"), Reached: true,
				Hops: []netip.Addr{a("10.0.0.1"), a("10.0.0.9"), a("10.0.0.2")},
				Gaps: []bool{false, false, false}},
			// A genuine adjacency confirmed by a trace addressed to its
			// second hop.
			{Dst: a("203.0.113.2"), Reached: true,
				Hops: []netip.Addr{a("10.0.1.1"), a("10.0.1.2")},
				Gaps: []bool{false, false}},
			{Dst: a("10.0.1.2"), Reached: true,
				Hops: []netip.Addr{a("10.0.1.1"), a("10.0.1.2")},
				Gaps: []bool{false, false}},
		},
	}
	findFalsePairs(col, probesched.New(1, nil))
	if !col.FalsePairs[[2]netip.Addr{a("10.0.0.1"), a("10.0.0.2")}] {
		t.Error("tunnel entry/exit pair not flagged false")
	}
	if col.FalsePairs[[2]netip.Addr{a("10.0.1.1"), a("10.0.1.2")}] {
		t.Error("genuine adjacency flagged false")
	}
	if !col.DirectPairs[[2]netip.Addr{a("10.0.1.1"), a("10.0.1.2")}] {
		t.Error("genuine adjacency not confirmed direct")
	}
}

func TestPartitionByRegion(t *testing.T) {
	dns := dnsdb.New()
	name := func(addr, co, region string) {
		n := "ae-1-ar01." + co + ".ca." + region + ".comcast.net"
		dns.SetLive(a(addr), n)
		dns.SetSnapshot(a(addr), n)
	}
	name("10.0.0.1", "aaa", "west")
	name("10.0.0.2", "bbb", "west")
	name("10.0.1.1", "ccc", "east")
	bb := "be-100-cr01.hub.ca.ibone.comcast.net"
	dns.SetLive(a("10.0.9.1"), bb)
	dns.SetSnapshot(a("10.0.9.1"), bb)

	c := &Campaign{DNS: dns, ISP: "comcast"}
	col := &Collection{
		AliasTargets: []netip.Addr{
			a("10.0.0.1"), a("10.0.0.2"), a("10.0.1.1"), a("10.0.9.1"),
			a("10.0.0.9"), // unnamed, appears on a west path below
			a("10.0.7.7"), // unnamed, unattributed
		},
		Paths: []Path{
			{Hops: []netip.Addr{a("10.0.0.1"), a("10.0.0.9"), a("10.0.0.2")},
				Gaps: []bool{false, false, false}},
		},
	}
	parts := c.partitionByRegion(col)
	if len(parts) < 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	find := func(addr netip.Addr) []int {
		var idx []int
		for i, p := range parts {
			for _, x := range p {
				if x == addr {
					idx = append(idx, i)
				}
			}
		}
		return idx
	}
	// Same-region named addresses and the path-attributed unnamed one
	// share a partition.
	w1 := find(a("10.0.0.1"))
	w9 := find(a("10.0.0.9"))
	if len(w1) != 1 || len(w9) != 1 || w1[0] != w9[0] {
		t.Errorf("west members split: %v vs %v", w1, w9)
	}
	// The east address is elsewhere.
	e := find(a("10.0.1.1"))
	if len(e) != 1 || e[0] == w1[0] {
		t.Errorf("east partition = %v (west=%v)", e, w1)
	}
	// The backbone address joins every regional partition (stale-name
	// correction requires it to meet its router-mates anywhere).
	bbIdx := find(a("10.0.9.1"))
	if len(bbIdx) < 3 {
		t.Errorf("backbone address appears in %d partitions, want all regionals + its own", len(bbIdx))
	}
	// The unattributed address lands in a bounded misc chunk.
	if misc := find(a("10.0.7.7")); len(misc) != 1 {
		t.Errorf("misc address partitions = %v", misc)
	}
}
