// Package dnsdb models the two reverse-DNS sources the paper combines: a
// live zone queried with dig, and a periodically-captured whole-Internet
// snapshot in the style of Rapid7's Sonar rDNS dataset. The snapshot is
// what campaigns scan for target selection; the live zone is fresher and
// is preferred when mapping addresses to COs (Appendix B.1).
//
// The topology generators populate both layers, injecting the staleness
// and gaps that drive the paper's filtering heuristics: snapshot entries
// may be missing, and either layer may carry an outdated name from a
// previous assignment of the address.
package dnsdb

import (
	"net/netip"
	"regexp"
	"sort"

	"repro/internal/probesched"
	"repro/internal/symtab"
)

// DB holds the live PTR zone and the scanned snapshot. Both layers store
// interned name symbols rather than strings: an address whose live and
// snapshot records agree (the common case — staleness is the exception
// the generators inject) references one table entry instead of carrying
// two map values, and lookups hand back the table's canonical string
// instance, so repeated Name calls never copy. The table is append-only;
// deleting a record drops the address key but retains the (shared) name,
// which is the right trade for snapshot-scale churn.
type DB struct {
	names    *symtab.Table
	live     map[netip.Addr]symtab.Sym
	snapshot map[netip.Addr]symtab.Sym
	// sorted is the lazily built address-ordered snapshot index that
	// ScanSnapshotParallel filters; nil means stale (rebuilt on next scan).
	// Mutators invalidate it, so the per-scan cost is one pass over the
	// index instead of a fresh sort of the whole snapshot every call.
	sorted []Entry
}

// New returns an empty database.
func New() *DB {
	return &DB{
		names:    symtab.New(0),
		live:     map[netip.Addr]symtab.Sym{},
		snapshot: map[netip.Addr]symtab.Sym{},
	}
}

// SetLive records the current PTR record for addr (what dig returns).
func (d *DB) SetLive(addr netip.Addr, name string) {
	d.sorted = nil
	if name == "" {
		delete(d.live, addr)
		return
	}
	d.live[addr] = d.names.Intern(name)
}

// SetSnapshot records the PTR record captured in the scan dataset.
func (d *DB) SetSnapshot(addr netip.Addr, name string) {
	d.sorted = nil
	if name == "" {
		delete(d.snapshot, addr)
		return
	}
	d.snapshot[addr] = d.names.Intern(name)
}

// Dig performs a live PTR lookup.
func (d *DB) Dig(addr netip.Addr) (string, bool) {
	s, ok := d.live[addr]
	if !ok {
		return "", false
	}
	return d.names.Str(s), true
}

// SnapshotLookup returns the snapshot PTR record for addr.
func (d *DB) SnapshotLookup(addr netip.Addr) (string, bool) {
	s, ok := d.snapshot[addr]
	if !ok {
		return "", false
	}
	return d.names.Str(s), true
}

// Name implements the paper's lookup priority: the live record when one
// exists, the snapshot otherwise.
func (d *DB) Name(addr netip.Addr) (string, bool) {
	if s, ok := d.live[addr]; ok {
		return d.names.Str(s), true
	}
	s, ok := d.snapshot[addr]
	if !ok {
		return "", false
	}
	return d.names.Str(s), true
}

// Entry is one (address, hostname) pair from the snapshot.
type Entry struct {
	Addr netip.Addr
	Name string
}

// sortedIndex returns the address-ordered snapshot, rebuilding it if a
// mutator ran since the last scan.
func (d *DB) sortedIndex() []Entry {
	if d.sorted == nil && len(d.snapshot) > 0 {
		idx := make([]Entry, 0, len(d.snapshot))
		for a, s := range d.snapshot {
			idx = append(idx, Entry{Addr: a, Name: d.names.Str(s)})
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i].Addr.Less(idx[j].Addr) })
		d.sorted = idx
	}
	return d.sorted
}

// ScanSnapshotParallel returns every snapshot entry whose hostname
// matches re, sorted by address; this is the paper's Rapid7-based
// target selection. Successive scans (campaigns run one per stage per
// operator) share one lazily built sorted index instead of re-sorting
// the snapshot per call. The regex filter is sharded across workers
// (0 selects GOMAXPROCS): contiguous index shards
// collect their hits privately and the per-shard hit lists concatenate
// in shard order, so the output is the same address-sorted entry list
// at any worker count. The index build itself stays serial (one sort,
// amortized across scans); matching is where the time goes on
// Rapid7-scale snapshots.
func (d *DB) ScanSnapshotParallel(re *regexp.Regexp, workers int) []Entry {
	idx := d.sortedIndex()
	pool := probesched.New(workers, nil)
	return probesched.Reduce(pool, len(idx),
		func() []Entry { return nil },
		func(out []Entry, i int) []Entry {
			if re.MatchString(idx[i].Name) {
				out = append(out, idx[i])
			}
			return out
		},
		func(into, from []Entry) []Entry { return append(into, from...) })
}

// SnapshotSize reports the number of snapshot records.
func (d *DB) SnapshotSize() int { return len(d.snapshot) }

// LiveSize reports the number of live records.
func (d *DB) LiveSize() int { return len(d.live) }
