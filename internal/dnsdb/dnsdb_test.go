package dnsdb

import (
	"fmt"
	"net/netip"
	"regexp"
	"testing"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestLookupPriority(t *testing.T) {
	d := New()
	d.SetSnapshot(a("10.0.0.1"), "old-name.example.net")
	d.SetLive(a("10.0.0.1"), "new-name.example.net")
	d.SetSnapshot(a("10.0.0.2"), "only-snapshot.example.net")
	d.SetLive(a("10.0.0.3"), "only-live.example.net")

	if n, _ := d.Name(a("10.0.0.1")); n != "new-name.example.net" {
		t.Errorf("Name prefers %q, want live record", n)
	}
	if n, _ := d.Name(a("10.0.0.2")); n != "only-snapshot.example.net" {
		t.Errorf("Name fallback = %q", n)
	}
	if n, _ := d.Name(a("10.0.0.3")); n != "only-live.example.net" {
		t.Errorf("Name live-only = %q", n)
	}
	if _, ok := d.Name(a("10.0.0.4")); ok {
		t.Error("Name for unknown address returned a record")
	}
}

func TestDigAndSnapshotAreSeparate(t *testing.T) {
	d := New()
	d.SetSnapshot(a("10.0.0.1"), "snap.example.net")
	if _, ok := d.Dig(a("10.0.0.1")); ok {
		t.Error("Dig returned a snapshot-only record")
	}
	if _, ok := d.SnapshotLookup(a("10.0.0.1")); !ok {
		t.Error("SnapshotLookup missed its record")
	}
}

func TestSetEmptyDeletes(t *testing.T) {
	d := New()
	d.SetLive(a("10.0.0.1"), "x.example.net")
	d.SetLive(a("10.0.0.1"), "")
	if _, ok := d.Dig(a("10.0.0.1")); ok {
		t.Error("empty SetLive did not delete")
	}
	d.SetSnapshot(a("10.0.0.2"), "y.example.net")
	d.SetSnapshot(a("10.0.0.2"), "")
	if d.SnapshotSize() != 0 {
		t.Error("empty SetSnapshot did not delete")
	}
}

func TestScanSnapshotParallel(t *testing.T) {
	d := New()
	for i := 0; i < 20; i++ {
		d.SetSnapshot(a(fmt.Sprintf("10.0.0.%d", i+1)), fmt.Sprintf("host-%d.lightspeed.sndgca.sbcglobal.net", i))
	}
	for i := 0; i < 5; i++ {
		d.SetSnapshot(a(fmt.Sprintf("10.0.1.%d", i+1)), fmt.Sprintf("cr%d.sd2ca.ip.att.net", i))
	}
	re := regexp.MustCompile(`\.lightspeed\.[a-z]{6}\.sbcglobal\.net$`)
	for _, workers := range []int{1, 4} {
		got := d.ScanSnapshotParallel(re, workers)
		if len(got) != 20 {
			t.Fatalf("workers=%d: matched %d entries, want 20", workers, len(got))
		}
		for i := 1; i < len(got); i++ {
			if !got[i-1].Addr.Less(got[i].Addr) {
				t.Fatalf("workers=%d: scan results not sorted by address", workers)
			}
		}
	}
	if d.SnapshotSize() != 25 || d.LiveSize() != 0 {
		t.Errorf("sizes = %d live %d snapshot", d.LiveSize(), d.SnapshotSize())
	}
}
