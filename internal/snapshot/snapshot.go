// Package snapshot turns a one-shot inference result into a long-lived,
// queryable topology artifact. A Snapshot is an immutable compilation
// of one comap pipeline run: symtab-interned CO identifiers, columnar
// CO/edge storage (structure-of-arrays, region-major spans), a compiled
// longest-prefix-match table from interface address to central office,
// a sorted address index for prefix-range queries, and the pre-encoded
// JSON of every answer the service splices per request (the
// schema-versioned report, each CO, each region extract). Build it
// once, publish it through a Store, and any number of goroutines query
// it concurrently with zero locks — immutability is the whole
// synchronization story on the read side.
//
// Versioning: a Snapshot's content is fixed at Build; its Version is
// stamped by the Store at publication (monotonic per Store). Refreshing
// a served topology is therefore one atomic pointer swap — readers in
// flight keep the version they loaded, new readers see the new one, and
// no reader ever observes a half-installed artifact (Consistent()
// re-derives the content digest to prove it).
package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"sort"
	"time"

	"repro/internal/comap"
	"repro/internal/prefixset"
	"repro/internal/symtab"
)

// Meta names the study run a snapshot was compiled from.
type Meta struct {
	// Study is the registry name of the study ("cable") and ISP the
	// operator whose inference this snapshot serves.
	Study string
	ISP   string
	// Seed is the scenario seed; BuiltAt the campaign's final
	// virtual-clock reading (the artifact's logical timestamp).
	Seed    int64
	BuiltAt time.Time
}

// CO is the materialized view of one central office, as returned by
// lookups. Addrs aliases the snapshot's columnar storage — callers must
// not mutate it.
type CO struct {
	Key        string       `json:"key"`
	Tag        string       `json:"tag"`
	Region     string       `json:"region"`
	IsAgg      bool         `json:"is_agg"`
	Addrs      []netip.Addr `json:"addrs,omitempty"`
	Confidence float64      `json:"confidence"`
}

// Stats summarizes a snapshot for the service's stats endpoint.
type Stats struct {
	Version       uint64    `json:"version"`
	Study         string    `json:"study"`
	ISP           string    `json:"isp"`
	Seed          int64     `json:"seed"`
	SchemaVersion int       `json:"schema_version"`
	BuiltAt       time.Time `json:"built_at"`
	Regions       int       `json:"regions"`
	COs           int       `json:"cos"`
	AggCOs        int       `json:"agg_cos"`
	Edges         int       `json:"edges"`
	Addrs         int       `json:"addrs"`
	// MeanConfidence averages per-CO evidence confidence across every
	// CO; MinConfidence is the weakest CO's score.
	MeanConfidence float64 `json:"mean_confidence"`
	MinConfidence  float64 `json:"min_confidence"`
}

// regionMeta is one region's spans into the columnar CO/edge storage.
type regionMeta struct {
	name           symtab.Sym
	aggType        string
	coLo, coHi     uint32
	edgeLo, edgeHi uint32
}

// Snapshot is the immutable artifact. All fields are written by Build
// (and Version once, by Store.Publish, before the pointer is ever
// shared); afterwards every method is safe for unlimited concurrent use
// with no locking.
type Snapshot struct {
	version uint64
	meta    Meta

	syms *symtab.Table

	// Columnar CO storage, region-major: COs of region r occupy
	// [regions[r].coLo, regions[r].coHi).
	coKey     []symtab.Sym
	coTag     []symtab.Sym
	coRegion  []uint32
	coIsAgg   []bool
	coConf    []float64
	coAddrOff []uint32 // len = len(coKey)+1; spans into coAddrs
	coAddrs   []netip.Addr

	// Columnar edge storage, region-major, (from, to, count).
	edgeFrom  []symtab.Sym
	edgeTo    []symtab.Sym
	edgeCount []int32

	regions   []regionMeta
	regionIdx map[string]int

	// addrSorted/addrCO is the sorted address index for prefix-range
	// queries; addrToCO is the compiled prefix-set trie for point
	// lookups (exact interface entries plus unambiguous block
	// aggregates — the IPv6-ready replacement for the per-bit-length
	// masked tables).
	addrSorted []netip.Addr
	addrCO     []uint32
	addrToCO   *prefixset.Compiled

	report     *comap.Report
	reportJSON []byte
	coverage   comap.CoverageReport

	// Pre-encoded answers, one flat byte column plus an offsets column
	// each (like coAddrs/coAddrOff). coJSON holds every CO in the form
	// it takes as an element of an indented JSON array (see coIndent);
	// regionJSON holds every region extract as a whole indented
	// document with its trailing newline, in region order.
	coJSON        []byte
	coJSONOff     []uint32 // len = len(coKey)+1
	regionJSON    []byte
	regionJSONOff []uint32 // len = len(regions)+1

	// digest is the FNV-1a content digest computed as the final build
	// step; Consistent() re-derives it. Version is deliberately outside
	// the digest: publication stamps it after content is sealed.
	digest uint64
}

// Build compiles a pipeline result into a servable snapshot. The
// traversal orders everything canonically (regions and CO keys sorted,
// edges sorted by endpoints), so equal results compile to byte-equal
// artifacts regardless of map iteration order.
func Build(meta Meta, res *comap.Result) (*Snapshot, error) {
	if res == nil || res.Inference == nil {
		return nil, fmt.Errorf("snapshot: nil result for study %q isp %q", meta.Study, meta.ISP)
	}
	rep := res.BuildReport(meta.ISP)
	js, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode report: %w", err)
	}
	js = append(js, '\n')

	s := &Snapshot{
		meta:       meta,
		syms:       symtab.New(256),
		regionIdx:  map[string]int{},
		report:     &rep,
		reportJSON: js,
		coverage:   res.Coverage,
	}

	names := make([]string, 0, len(res.Inference.Regions))
	for n := range res.Inference.Regions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		g := res.Inference.Regions[name]
		rm := regionMeta{
			name:    s.syms.Intern(name),
			aggType: g.Classify().String(),
			coLo:    uint32(len(s.coKey)),
			edgeLo:  uint32(len(s.edgeFrom)),
		}
		keys := make([]string, 0, len(g.COs))
		for k := range g.COs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			node := g.COs[k]
			s.coKey = append(s.coKey, s.syms.Intern(k))
			s.coTag = append(s.coTag, s.syms.Intern(node.Tag))
			s.coRegion = append(s.coRegion, uint32(len(s.regions)))
			s.coIsAgg = append(s.coIsAgg, node.IsAgg)
			s.coConf = append(s.coConf, comap.COConfidence(g, k))
			addrs := append([]netip.Addr(nil), node.Addrs...)
			sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
			s.coAddrs = append(s.coAddrs, addrs...)
			s.coAddrOff = append(s.coAddrOff, uint32(len(s.coAddrs)))
		}
		type edge struct {
			from, to string
			n        int
		}
		edges := make([]edge, 0, len(g.Edges))
		for e, n := range g.Edges {
			edges = append(edges, edge{e[0], e[1], n})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].from != edges[j].from {
				return edges[i].from < edges[j].from
			}
			return edges[i].to < edges[j].to
		})
		for _, e := range edges {
			s.edgeFrom = append(s.edgeFrom, s.syms.Intern(e.from))
			s.edgeTo = append(s.edgeTo, s.syms.Intern(e.to))
			s.edgeCount = append(s.edgeCount, int32(e.n))
		}
		rm.coHi = uint32(len(s.coKey))
		rm.edgeHi = uint32(len(s.edgeFrom))
		s.regionIdx[name] = len(s.regions)
		s.regions = append(s.regions, rm)
	}
	// coAddrOff needs the leading 0 sentinel; it was appended per-CO
	// above, so prepend once.
	s.coAddrOff = append([]uint32{0}, s.coAddrOff...)

	if err := s.encodeAnswers(); err != nil {
		return nil, err
	}
	s.buildAddrIndex()
	s.digest = s.computeDigest()
	return s, nil
}

// coIndent is the line prefix of a CO fragment: an element of a JSON
// array encoded with two-space indentation sits one level deep.
const coIndent = "  "

// encodeAnswers pre-encodes every snapshot-derived answer exactly as an
// encoding/json Encoder with SetIndent("", "  ") writes it, so the
// service serves bytes instead of reflecting over structs per request.
// A CO is stored as an array element — encoded with prefix coIndent
// behind a leading coIndent, without the Encoder's trailing newline —
// which a range answer splices as is and a single-CO answer un-indents
// (AppendAddrJSON). A region extract is stored as the whole answer.
func (s *Snapshot) encodeAnswers() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent(coIndent, "  ")
	s.coJSONOff = make([]uint32, 1, len(s.coKey)+1)
	for i := range s.coKey {
		buf.WriteString(coIndent)
		if err := enc.Encode(s.co(uint32(i))); err != nil {
			return fmt.Errorf("snapshot: encode CO %s: %w", s.syms.Str(s.coKey[i]), err)
		}
		buf.Truncate(buf.Len() - 1) // Encode's trailing newline
		s.coJSONOff = append(s.coJSONOff, uint32(buf.Len()))
	}
	s.coJSON = bytes.Clone(buf.Bytes())

	buf.Reset()
	enc.SetIndent("", "  ")
	s.regionJSONOff = make([]uint32, 1, len(s.regions)+1)
	for i := range s.regions {
		if err := enc.Encode(&s.report.Regions[i]); err != nil {
			return fmt.Errorf("snapshot: encode region %s: %w", s.syms.Str(s.regions[i].name), err)
		}
		s.regionJSONOff = append(s.regionJSONOff, uint32(buf.Len()))
	}
	s.regionJSON = bytes.Clone(buf.Bytes())
	return nil
}

// buildAddrIndex compiles the two address-query structures: the sorted
// (addr, CO) index for range scans, and the compiled prefix-set trie
// for point lookups — a /32 (or /128) entry per interface address, plus
// a /24 (or /48) aggregate for every block whose addresses all belong
// to one CO, so a query for an unprobed address still resolves to its
// CO when the block is unambiguous. Longest-prefix semantics make the
// exact entry beat its block aggregate, exactly as the per-bit-length
// tables (probed longest first) did before the trie.
func (s *Snapshot) buildAddrIndex() {
	n := len(s.coAddrs)
	s.addrSorted = make([]netip.Addr, 0, n)
	s.addrCO = make([]uint32, 0, n)
	type pair struct {
		a  netip.Addr
		co uint32
	}
	pairs := make([]pair, 0, n)
	for co := 0; co < len(s.coKey); co++ {
		for _, a := range s.coAddrs[s.coAddrOff[co]:s.coAddrOff[co+1]] {
			pairs = append(pairs, pair{a, uint32(co)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a.Less(pairs[j].a)
		}
		return pairs[i].co < pairs[j].co
	})
	for _, p := range pairs {
		s.addrSorted = append(s.addrSorted, p.a)
		s.addrCO = append(s.addrCO, p.co)
	}

	// Exact entries first, then unambiguous block aggregates, all in
	// one trie. An ambiguous block (two COs sharing it) is marked -1
	// and deleted before compilation: a miss is better than a guess,
	// and the trie re-collapses on delete, so the compiled layout is
	// identical to one that never saw the ambiguous block.
	var tbl prefixset.Table
	put := func(p netip.Prefix, co int32) {
		if prev, ok := tbl.Get(p); ok {
			if prev != co {
				tbl.Put(p, -1) // ambiguous
			}
			return
		}
		tbl.Put(p, co)
	}
	for i, a := range s.addrSorted {
		put(netip.PrefixFrom(a, a.BitLen()), int32(s.addrCO[i]))
		blockBits := 24
		if a.Is6() && !a.Is4In6() {
			blockBits = 48
		}
		if p, err := a.Prefix(blockBits); err == nil {
			put(p, int32(s.addrCO[i]))
		}
	}
	var ambiguous []netip.Prefix
	tbl.Each(func(p netip.Prefix, co int32) bool {
		if co < 0 {
			ambiguous = append(ambiguous, p)
		}
		return true
	})
	for _, p := range ambiguous {
		tbl.Delete(p)
	}
	s.addrToCO = tbl.Compile()
}

// computeDigest folds every content column (never the publication
// version) into one FNV-1a value.
func (s *Snapshot) computeDigest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "meta %s/%s seed=%d built=%d\n", s.meta.Study, s.meta.ISP, s.meta.Seed, s.meta.BuiltAt.UnixNano())
	for i := 0; i < s.syms.Len(); i++ {
		h.Write([]byte(s.syms.Str(symtab.Sym(i))))
		h.Write([]byte{0})
	}
	var scratch [8]byte
	wu32 := func(v uint32) {
		scratch[0], scratch[1], scratch[2], scratch[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(scratch[:4])
	}
	for i := range s.coKey {
		wu32(uint32(s.coKey[i]))
		wu32(uint32(s.coTag[i]))
		wu32(s.coRegion[i])
		if s.coIsAgg[i] {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, off := range s.coAddrOff {
		wu32(off)
	}
	for _, a := range s.coAddrs {
		b, _ := a.MarshalBinary()
		h.Write(b)
	}
	for i := range s.edgeFrom {
		wu32(uint32(s.edgeFrom[i]))
		wu32(uint32(s.edgeTo[i]))
		wu32(uint32(s.edgeCount[i]))
	}
	for _, rm := range s.regions {
		wu32(uint32(rm.name))
		wu32(rm.coLo)
		wu32(rm.coHi)
		wu32(rm.edgeLo)
		wu32(rm.edgeHi)
		h.Write([]byte(rm.aggType))
	}
	h.Write(s.reportJSON)
	for _, off := range s.coJSONOff {
		wu32(off)
	}
	h.Write(s.coJSON)
	for _, off := range s.regionJSONOff {
		wu32(off)
	}
	h.Write(s.regionJSON)
	return h.Sum64()
}

// Consistent re-derives the content digest and structural invariants.
// A torn or half-built artifact — which the atomic publication
// discipline makes impossible to observe, and the race test hammers —
// would fail here.
func (s *Snapshot) Consistent() bool {
	n := len(s.coKey)
	if len(s.coTag) != n || len(s.coRegion) != n || len(s.coIsAgg) != n ||
		len(s.coConf) != n || len(s.coAddrOff) != n+1 {
		return false
	}
	if n > 0 && int(s.coAddrOff[n]) != len(s.coAddrs) {
		return false
	}
	for i := 0; i < n; i++ {
		if s.coAddrOff[i] > s.coAddrOff[i+1] {
			return false
		}
	}
	if len(s.edgeTo) != len(s.edgeFrom) || len(s.edgeCount) != len(s.edgeFrom) {
		return false
	}
	if len(s.addrCO) != len(s.addrSorted) || s.addrToCO == nil {
		return false
	}
	if len(s.coJSONOff) != n+1 || int(s.coJSONOff[n]) != len(s.coJSON) ||
		len(s.regionJSONOff) != len(s.regions)+1 || int(s.regionJSONOff[len(s.regions)]) != len(s.regionJSON) {
		return false
	}
	return s.digest == s.computeDigest()
}

// Version is the Store-assigned publication version; zero means the
// snapshot was never published.
func (s *Snapshot) Version() uint64 { return s.version }

// Meta returns the identifying metadata.
func (s *Snapshot) Meta() Meta { return s.meta }

// co materializes CO index i.
func (s *Snapshot) co(i uint32) CO {
	return CO{
		Key:        s.syms.Str(s.coKey[i]),
		Tag:        s.syms.Str(s.coTag[i]),
		Region:     s.syms.Str(s.regions[s.coRegion[i]].name),
		IsAgg:      s.coIsAgg[i],
		Addrs:      s.coAddrs[s.coAddrOff[i]:s.coAddrOff[i+1]],
		Confidence: s.coConf[i],
	}
}

// lookupCO resolves an interface address to its CO index via the
// compiled prefix-set trie: longest match, so an exact interface entry
// beats its block aggregate.
func (s *Snapshot) lookupCO(a netip.Addr) (uint32, bool) {
	if s.addrToCO == nil {
		return 0, false
	}
	co, ok := s.addrToCO.Lookup(a)
	return uint32(co), ok
}

// LookupAddr resolves an interface address to its central office. ok
// is false when no mapped CO covers the address.
func (s *Snapshot) LookupAddr(a netip.Addr) (CO, bool) {
	co, ok := s.lookupCO(a)
	if !ok {
		return CO{}, false
	}
	return s.co(co), true
}

// AppendAddrJSON appends LookupAddr's answer for a, encoded as an
// indented JSON document with a trailing newline, to dst. It copies the
// CO's pre-encoded fragment, dropping the array-element indent after
// every newline, and allocates nothing when dst has room. ok is false
// (and dst returned unchanged) when no mapped CO covers a.
func (s *Snapshot) AppendAddrJSON(dst []byte, a netip.Addr) ([]byte, bool) {
	co, ok := s.lookupCO(a)
	if !ok {
		return dst, false
	}
	// Encoded JSON strings escape newlines, so every raw newline in a
	// fragment is layout, followed by exactly one coIndent.
	frag := s.coJSON[int(s.coJSONOff[co])+len(coIndent) : s.coJSONOff[co+1]]
	dst = slices.Grow(dst, len(frag)+1-len(coIndent)*bytes.Count(frag, []byte{'\n'}))
	for {
		i := bytes.IndexByte(frag, '\n')
		if i < 0 {
			break
		}
		dst = append(dst, frag[:i+1]...)
		frag = frag[i+1+len(coIndent):]
	}
	return append(append(dst, frag...), '\n'), true
}

// ownerWalk is the one range walker behind LookupPrefix and
// AppendPrefixJSON: it reports each CO owning an address in
// addrSorted[lo:hi) once, in first-address order, deduplicating with a
// per-call bitset over CO indexes.
type ownerWalk struct {
	s         *Snapshot
	lo, hi, i int
	seen      []uint64
}

// walkOwners positions a walker over the addresses inside p (masked
// first) by binary search over the sorted address index. An empty
// range allocates nothing.
func (s *Snapshot) walkOwners(p netip.Prefix) ownerWalk {
	p = p.Masked()
	lo := sort.Search(len(s.addrSorted), func(i int) bool {
		return !s.addrSorted[i].Less(p.Addr())
	})
	// The addresses p contains are contiguous from lo on.
	hi := lo + sort.Search(len(s.addrSorted)-lo, func(i int) bool {
		return !p.Contains(s.addrSorted[lo+i])
	})
	w := ownerWalk{s: s, lo: lo, hi: hi, i: lo}
	if hi > lo {
		w.seen = make([]uint64, (len(s.coKey)+63)/64)
	}
	return w
}

// next returns the next CO not yet reported, or ok=false at the end of
// the range.
func (w *ownerWalk) next() (co uint32, ok bool) {
	for w.i < w.hi {
		co = w.s.addrCO[w.i]
		w.i++
		if bit := uint64(1) << (co % 64); w.seen[co/64]&bit == 0 {
			w.seen[co/64] |= bit
			return co, true
		}
	}
	return 0, false
}

// rewind restarts the walk from the first address of the range.
func (w *ownerWalk) rewind() {
	w.i = w.lo
	clear(w.seen)
}

// LookupPrefix returns every CO with at least one interface address
// inside the prefix, in address order with duplicates removed.
func (s *Snapshot) LookupPrefix(p netip.Prefix) []CO {
	w := s.walkOwners(p)
	var out []CO
	for co, ok := w.next(); ok; co, ok = w.next() {
		out = append(out, s.co(co))
	}
	return out
}

// AppendPrefixJSON appends LookupPrefix's answer for p, encoded as an
// indented JSON array with a trailing newline ("[]\n" for an empty
// range), to dst. A first walk sizes dst exactly; the second splices
// the pre-encoded CO fragments. Its only allocation is the walker's
// dedup bitset (and dst's growth when it lacks room).
func (s *Snapshot) AppendPrefixJSON(dst []byte, p netip.Prefix) []byte {
	w := s.walkOwners(p)
	n, size := 0, 0
	for co, ok := w.next(); ok; co, ok = w.next() {
		n++
		size += int(s.coJSONOff[co+1] - s.coJSONOff[co])
	}
	if n == 0 {
		return append(dst, "[]\n"...)
	}
	// "[" + n × "\n"+fragment + (n-1) × "," + "\n]\n".
	dst = slices.Grow(dst, size+2*n+3)
	w.rewind()
	sep := byte('[')
	for co, ok := w.next(); ok; co, ok = w.next() {
		dst = append(dst, sep, '\n')
		dst = append(dst, s.coJSON[s.coJSONOff[co]:s.coJSONOff[co+1]]...)
		sep = ','
	}
	return append(dst, "\n]\n"...)
}

// RegionNames returns the region names in canonical (sorted) order.
func (s *Snapshot) RegionNames() []string {
	out := make([]string, len(s.regions))
	for i, rm := range s.regions {
		out[i] = s.syms.Str(rm.name)
	}
	return out
}

// Region returns the serialized extract of one region graph — the same
// schema-versioned RegionReport the full report carries — or ok=false
// for an unknown region.
func (s *Snapshot) Region(name string) (*comap.RegionReport, bool) {
	i, ok := s.regionIdx[name]
	if !ok {
		return nil, false
	}
	return &s.report.Regions[i], true
}

// RegionJSON returns Region's extract pre-encoded as indented JSON with
// a trailing newline, or ok=false for an unknown region. The bytes
// alias the snapshot: callers must not modify them.
func (s *Snapshot) RegionJSON(name string) ([]byte, bool) {
	i, ok := s.regionIdx[name]
	if !ok {
		return nil, false
	}
	lo, hi := s.regionJSONOff[i], s.regionJSONOff[i+1]
	return s.regionJSON[lo:hi:hi], true
}

// RegionCOs returns one region's COs as materialized views, in key
// order; nil for an unknown region.
func (s *Snapshot) RegionCOs(name string) []CO {
	i, ok := s.regionIdx[name]
	if !ok {
		return nil
	}
	rm := s.regions[i]
	out := make([]CO, 0, rm.coHi-rm.coLo)
	for c := rm.coLo; c < rm.coHi; c++ {
		out = append(out, s.co(c))
	}
	return out
}

// Report returns the full schema-versioned report.
func (s *Snapshot) Report() *comap.Report { return s.report }

// ReportJSON returns the report pre-encoded as indented JSON (with a
// trailing newline), so serving it costs no per-request marshaling.
func (s *Snapshot) ReportJSON() []byte { return s.reportJSON }

// Coverage returns the campaign's measurement-coverage accounting.
func (s *Snapshot) Coverage() comap.CoverageReport { return s.coverage }

// Table1 counts regions per aggregation archetype — the paper's Table 1
// as a service endpoint.
func (s *Snapshot) Table1() map[string]int {
	out := map[string]int{}
	for _, rm := range s.regions {
		out[rm.aggType]++
	}
	return out
}

// RegionSize is one row of the Figure 7 endpoint.
type RegionSize struct {
	Region string `json:"region"`
	COs    int    `json:"cos"`
	AggCOs int    `json:"agg_cos"`
}

// Figure7 returns per-region CO and AggCO counts in region order — the
// paper's Figure 7 CDF inputs as a service endpoint.
func (s *Snapshot) Figure7() []RegionSize {
	out := make([]RegionSize, 0, len(s.regions))
	for _, rm := range s.regions {
		row := RegionSize{Region: s.syms.Str(rm.name), COs: int(rm.coHi - rm.coLo)}
		for c := rm.coLo; c < rm.coHi; c++ {
			if s.coIsAgg[c] {
				row.AggCOs++
			}
		}
		out = append(out, row)
	}
	return out
}

// Stats summarizes the snapshot.
func (s *Snapshot) Stats() Stats {
	st := Stats{
		Version:       s.version,
		Study:         s.meta.Study,
		ISP:           s.meta.ISP,
		Seed:          s.meta.Seed,
		SchemaVersion: s.report.SchemaVersion,
		BuiltAt:       s.meta.BuiltAt,
		Regions:       len(s.regions),
		COs:           len(s.coKey),
		Edges:         len(s.edgeFrom),
		Addrs:         len(s.addrSorted),
		MinConfidence: 1,
	}
	var sum float64
	for i := range s.coKey {
		if s.coIsAgg[i] {
			st.AggCOs++
		}
		sum += s.coConf[i]
		if s.coConf[i] < st.MinConfidence {
			st.MinConfidence = s.coConf[i]
		}
	}
	if len(s.coKey) > 0 {
		st.MeanConfidence = sum / float64(len(s.coKey))
	} else {
		st.MinConfidence = 0
	}
	return st
}
