package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"repro/internal/comap"
	"repro/internal/core"
	"repro/internal/snapshot"
)

// service owns one snapshot store per measured operator. The stores and
// results maps are written only during bootstrap, before any handler or
// refresher runs (refreshes re-publish into existing stores from a
// single background goroutine); every query is an atomic store.Load
// plus reads of the immutable snapshot — no locks anywhere on the read
// path.
type service struct {
	study string
	seed  int64
	opts  []core.Option

	isps    []string
	stores  map[string]*snapshot.Store
	results map[string]*comap.Result

	// sup is the background-refresh supervisor, nil when the daemon
	// serves the boot snapshot forever; /v1/health folds its failure
	// ledger in when present.
	sup *supervisor
}

func newService(study string, seed int64, opts []core.Option) *service {
	return &service{
		study: study, seed: seed, opts: opts,
		stores:  map[string]*snapshot.Store{},
		results: map[string]*comap.Result{},
	}
}

// runStudy executes the study through the registry and returns the
// per-operator pipeline results in campaign order.
func (s *service) runStudy(ctx context.Context) ([]string, map[string]*comap.Result, error) {
	st, err := core.NewStudy(s.study, s.seed, s.opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := st.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(res.CableISPs) == 0 {
		return nil, nil, fmt.Errorf("study %q produces no snapshot-servable reports (only cable campaigns build comap reports)", s.study)
	}
	return res.CableISPs, res.Cable, nil
}

// compile builds one operator's result into a snapshot and publishes it
// to that operator's store.
func (s *service) compile(isp string) error {
	store, ok := s.stores[isp]
	if !ok {
		return fmt.Errorf("no store for operator %q", isp)
	}
	snap, err := snapshot.Build(snapshot.Meta{
		Study: s.study, ISP: isp, Seed: s.seed, BuiltAt: time.Now(),
	}, s.results[isp])
	if err != nil {
		return fmt.Errorf("%s: %w", isp, err)
	}
	_, err = store.Publish(snap)
	return err
}

// bootstrap runs the study once, creates the per-operator stores, and
// publishes version 1 of each snapshot. It must complete before the
// listener starts: it is the only writer of the maps.
func (s *service) bootstrap(ctx context.Context) error {
	isps, results, err := s.runStudy(ctx)
	if err != nil {
		return err
	}
	s.isps, s.results = isps, results
	for _, isp := range isps {
		s.stores[isp] = &snapshot.Store{}
		if err := s.compile(isp); err != nil {
			return err
		}
	}
	s.releaseSpill()
	return nil
}

// releaseSpill closes every retained result's spilled trace archive (a
// no-op for resident campaigns). Snapshot compiles read only the
// inference artifacts, never the raw paths, so the spill files can go
// as soon as the snapshots are published — a windowed regiond does not
// accumulate a spill directory per refresh.
func (s *service) releaseSpill() {
	for _, r := range s.results {
		r.Close()
	}
}

// refresh re-runs the full campaign and swaps each operator's fresh
// snapshot into its existing store. Every snapshot is built before any
// is published: a refresh that fails anywhere — campaign, compile —
// publishes nothing and leaves every store serving its last good
// artifact (the supervisor reports the failure through /v1/health).
// Readers holding the superseded artifact keep it; new loads observe
// the new version.
func (s *service) refresh(ctx context.Context) error {
	isps, results, err := s.runStudy(ctx)
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			// The rejected results' spill files have no further use.
			for _, r := range results {
				r.Close()
			}
		}
	}()
	snaps := make(map[string]*snapshot.Snapshot, len(isps))
	for _, isp := range isps {
		if _, ok := s.stores[isp]; !ok {
			return fmt.Errorf("refresh produced unknown operator %q", isp)
		}
		snap, err := snapshot.Build(snapshot.Meta{
			Study: s.study, ISP: isp, Seed: s.seed, BuiltAt: time.Now(),
		}, results[isp])
		if err != nil {
			return fmt.Errorf("%s: %w", isp, err)
		}
		snaps[isp] = snap
	}
	for _, isp := range isps {
		if _, err := s.stores[isp].Publish(snaps[isp]); err != nil {
			return err
		}
	}
	published = true
	s.results = results
	s.releaseSpill()
	return nil
}

// snap resolves the request's operator (?isp=, default the first
// measured one) to its current snapshot.
func (s *service) snap(w http.ResponseWriter, r *http.Request) *snapshot.Snapshot {
	isp := r.URL.Query().Get("isp")
	if isp == "" {
		isp = s.isps[0]
	}
	store, ok := s.stores[isp]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown operator %q (serving %v)", isp, s.isps)
		return nil
	}
	snap := store.Load()
	if snap == nil {
		httpError(w, http.StatusServiceUnavailable, "no snapshot published yet for %q", isp)
		return nil
	}
	return snap
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON encodes a small or publication-dependent answer per
// request; snapshot-derived answers are pre-encoded and go through
// writeRaw instead.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeRaw serves a pre-encoded JSON body with its exact
// Content-Length, so net/http sends it in one piece instead of chunked.
func writeRaw(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// answerBufs recycles the buffers lookup answers are spliced into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// Named /v1/lookup query errors, each answered with a 400.
var (
	errNoQuery   = errors.New("need ?addr= or ?prefix=")
	errZonedAddr = errors.New("bad addr: an IPv6 zone names a local link, not a mapped address")
)

// lookupQuery is one normalised /v1/lookup query: a valid prefix asks
// for a range answer, otherwise addr asks for a single CO.
type lookupQuery struct {
	addr   netip.Addr
	prefix netip.Prefix
}

// parseLookup normalises the raw addr and prefix query strings (addr
// wins when both are set). A v4-mapped IPv6 address is unmapped; a
// v4-mapped prefix of at least 96 bits becomes the IPv4 prefix of
// bits-96; every prefix is masked to its network address. A zoned
// address, an unparsable value and an empty query are errors.
func parseLookup(addr, prefix string) (lookupQuery, error) {
	switch {
	case addr != "":
		a, err := netip.ParseAddr(addr)
		if err != nil {
			return lookupQuery{}, fmt.Errorf("bad addr: %w", err)
		}
		if a.Zone() != "" {
			return lookupQuery{}, errZonedAddr
		}
		return lookupQuery{addr: a.Unmap()}, nil
	case prefix != "":
		p, err := netip.ParsePrefix(prefix)
		if err != nil {
			return lookupQuery{}, fmt.Errorf("bad prefix: %w", err)
		}
		if a := p.Addr(); a.Is4In6() && p.Bits() >= 96 {
			p = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
		}
		return lookupQuery{prefix: p.Masked()}, nil
	default:
		return lookupQuery{}, errNoQuery
	}
}

// handler builds the query surface. Every endpoint resolves one
// immutable snapshot up front and reads only from it, so a refresh
// mid-request is invisible.
func (s *service) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		versions := map[string]uint64{}
		for isp, store := range s.stores {
			versions[isp] = store.Version()
		}
		body := map[string]any{"status": "ok", "study": s.study, "seed": s.seed, "versions": versions}
		if s.sup != nil {
			rh := s.sup.health()
			body["refresh"] = rh
			// A failing refresh degrades the whole health verdict; the
			// daemon still answers queries from the last good snapshot.
			body["status"] = rh.Status
		}
		writeJSON(w, body)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeJSON(w, snap.Stats())
		}
	})

	mux.HandleFunc("GET /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		snap := s.snap(w, r)
		if snap == nil {
			return
		}
		q := r.URL.Query()
		lq, err := parseLookup(q.Get("addr"), q.Get("prefix"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		buf := answerBufs.Get().(*[]byte)
		defer answerBufs.Put(buf)
		if lq.prefix.IsValid() {
			*buf = snap.AppendPrefixJSON((*buf)[:0], lq.prefix)
		} else {
			var ok bool
			if *buf, ok = snap.AppendAddrJSON((*buf)[:0], lq.addr); !ok {
				httpError(w, http.StatusNotFound, "%s maps to no CO", lq.addr)
				return
			}
		}
		writeRaw(w, *buf)
	})

	mux.HandleFunc("GET /v1/regions", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeJSON(w, snap.RegionNames())
		}
	})

	mux.HandleFunc("GET /v1/region/{name}", func(w http.ResponseWriter, r *http.Request) {
		snap := s.snap(w, r)
		if snap == nil {
			return
		}
		body, ok := snap.RegionJSON(r.PathValue("name"))
		if !ok {
			httpError(w, http.StatusNotFound, "region %q not in snapshot", r.PathValue("name"))
			return
		}
		writeRaw(w, body)
	})

	// The full report is pre-marshaled at snapshot build, so this is a
	// single buffer write.
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeRaw(w, snap.ReportJSON())
		}
	})

	mux.HandleFunc("GET /v1/coverage", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeJSON(w, snap.Coverage())
		}
	})

	mux.HandleFunc("GET /v1/table1", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeJSON(w, snap.Table1())
		}
	})

	mux.HandleFunc("GET /v1/figure7", func(w http.ResponseWriter, r *http.Request) {
		if snap := s.snap(w, r); snap != nil {
			writeJSON(w, snap.Figure7())
		}
	})

	return mux
}
