package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/netip"
	"net/url"
	"testing"

	"repro/internal/snapshot"
)

// lookupCases is the normalisation table for /v1/lookup queries, in
// the style of the IPAddress parser tests: each raw addr/prefix pair
// with the normalised query it must become, or the status it must be
// refused with. FuzzLookupQuery seeds its corpus from it.
var lookupCases = []struct {
	name         string
	addr, prefix string
	want         lookupQuery
	code         int   // the refusal's HTTP status; 0: parses to want
	err          error // the named error a refused query wraps, if any
}{
	{name: "v4 addr", addr: "68.80.0.1", want: lookupQuery{addr: netip.MustParseAddr("68.80.0.1")}},
	{name: "v4-mapped addr", addr: "::ffff:68.80.0.1", want: lookupQuery{addr: netip.MustParseAddr("68.80.0.1")}},
	{name: "v6 addr", addr: "2001:db8::1", want: lookupQuery{addr: netip.MustParseAddr("2001:db8::1")}},
	{name: "zoned addr", addr: "fe80::1%eth0", code: http.StatusBadRequest, err: errZonedAddr},
	{name: "zoned v4-mapped addr", addr: "::ffff:68.80.0.1%eth0", code: http.StatusBadRequest, err: errZonedAddr},
	{name: "bad addr", addr: "not-an-ip", code: http.StatusBadRequest},
	{name: "addr wins", addr: "68.80.0.1", prefix: "68.80.0.0/16", want: lookupQuery{addr: netip.MustParseAddr("68.80.0.1")}},
	{name: "/0", prefix: "0.0.0.0/0", want: lookupQuery{prefix: netip.MustParsePrefix("0.0.0.0/0")}},
	{name: "/32", prefix: "68.80.0.1/32", want: lookupQuery{prefix: netip.MustParsePrefix("68.80.0.1/32")}},
	{name: "/128", prefix: "2001:db8::1/128", want: lookupQuery{prefix: netip.MustParsePrefix("2001:db8::1/128")}},
	{name: "v6 /0", prefix: "::/0", want: lookupQuery{prefix: netip.MustParsePrefix("::/0")}},
	{name: "non-canonical", prefix: "68.80.0.1/16", want: lookupQuery{prefix: netip.MustParsePrefix("68.80.0.0/16")}},
	{name: "v4-mapped /112", prefix: "::ffff:68.80.0.1/112", want: lookupQuery{prefix: netip.MustParsePrefix("68.80.0.0/16")}},
	{name: "v4-mapped /128", prefix: "::ffff:68.80.0.1/128", want: lookupQuery{prefix: netip.MustParsePrefix("68.80.0.1/32")}},
	{name: "v4-mapped /96", prefix: "::ffff:0.0.0.0/96", want: lookupQuery{prefix: netip.MustParsePrefix("0.0.0.0/0")}},
	{name: "v4-mapped below /96", prefix: "::ffff:68.80.0.1/80", want: lookupQuery{prefix: netip.MustParsePrefix("::/80")}},
	{name: "/33", prefix: "68.80.0.0/33", code: http.StatusBadRequest},
	{name: "/129", prefix: "2001:db8::/129", code: http.StatusBadRequest},
	{name: "zoned prefix", prefix: "fe80::%eth0/64", code: http.StatusBadRequest},
	{name: "bare addr as prefix", prefix: "68.80.0.1", code: http.StatusBadRequest},
	{name: "empty", code: http.StatusBadRequest, err: errNoQuery},
}

func TestParseLookupQuery(t *testing.T) {
	h := quickstartService(t).handler()
	for _, c := range lookupCases {
		if c.code != 0 {
			target := "/v1/lookup?" + url.Values{"addr": {c.addr}, "prefix": {c.prefix}}.Encode()
			if code, _ := get(t, h, target); code != c.code {
				t.Errorf("%s: GET %s = %d, want %d", c.name, target, code, c.code)
			}
		}
		got, err := parseLookup(c.addr, c.prefix)
		switch {
		case c.code == 0 && err != nil:
			t.Errorf("%s: parseLookup(%q, %q) error %v, want %+v", c.name, c.addr, c.prefix, err, c.want)
		case c.code == 0 && got != c.want:
			t.Errorf("%s: parseLookup(%q, %q) = %+v, want %+v", c.name, c.addr, c.prefix, got, c.want)
		case c.code != 0 && err == nil:
			t.Errorf("%s: parseLookup(%q, %q) = %+v, want an error", c.name, c.addr, c.prefix, got)
		case c.err != nil && !errors.Is(err, c.err):
			t.Errorf("%s: parseLookup(%q, %q) error %v, want %v", c.name, c.addr, c.prefix, err, c.err)
		}
	}
}

// TestLookupNormalisedOverHTTP: a v4-mapped spelling answers what the
// plain IPv4 spelling answers, and a zoned address is a 400, not a 404.
func TestLookupNormalisedOverHTTP(t *testing.T) {
	svc := quickstartService(t)
	h := svc.handler()
	a := mappedAddr(svc)
	code, plain := get(t, h, "/v1/lookup?addr="+a.String())
	if code != http.StatusOK {
		t.Fatalf("lookup(%s) = %d", a, code)
	}
	mapped := netip.AddrFrom16(a.As16())
	if code, body := get(t, h, "/v1/lookup?addr="+url.QueryEscape(mapped.String())); code != http.StatusOK || body != plain {
		t.Errorf("lookup(%s) = %d, want the answer for %s", mapped, code, a)
	}
	p, _ := a.Prefix(24)
	_, plainRange := get(t, h, "/v1/lookup?prefix="+url.QueryEscape(p.String()))
	mp := netip.PrefixFrom(mapped, 96+24)
	if code, body := get(t, h, "/v1/lookup?prefix="+url.QueryEscape(mp.String())); code != http.StatusOK || body != plainRange {
		t.Errorf("lookup(%s) = %d, want the answer for %s", mp, code, p)
	}
	if code, _ := get(t, h, "/v1/lookup?addr="+url.QueryEscape("fe80::1%eth0")); code != http.StatusBadRequest {
		t.Errorf("zoned addr = %d, want 400", code)
	}
}

// mappedAddr is an interface address the service's snapshot maps.
func mappedAddr(svc *service) netip.Addr {
	return svc.stores["comcast"].Load().LookupPrefix(netip.MustParsePrefix("0.0.0.0/0"))[0].Addrs[0]
}

// FuzzLookupQuery drives raw addr/prefix strings through the quickstart
// handler. No query may panic or answer anything but 200, 400 or 404,
// and every 200 body must decode to what the struct API returns for
// the normalised query.
func FuzzLookupQuery(f *testing.F) {
	for _, c := range lookupCases {
		f.Add(c.addr, c.prefix)
	}
	svc := quickstartService(f)
	f.Add(mappedAddr(svc).String(), "")
	h := svc.handler()
	snap := svc.stores["comcast"].Load()
	f.Fuzz(func(t *testing.T, addr, prefix string) {
		code, body := get(t, h, "/v1/lookup?"+url.Values{"addr": {addr}, "prefix": {prefix}}.Encode())
		if code != http.StatusOK {
			if code != http.StatusBadRequest && code != http.StatusNotFound {
				t.Fatalf("addr=%q prefix=%q: status %d", addr, prefix, code)
			}
			return
		}
		q, err := parseLookup(addr, prefix)
		if err != nil {
			t.Fatalf("addr=%q prefix=%q answered 200 but does not parse: %v", addr, prefix, err)
		}
		var got, want any
		if q.prefix.IsValid() {
			cos := snap.LookupPrefix(q.prefix)
			if cos == nil {
				cos = []snapshot.CO{}
			}
			got, want = new([]snapshot.CO), cos
		} else {
			co, ok := snap.LookupAddr(q.addr)
			if !ok {
				t.Fatalf("addr=%q answered 200 but maps to no CO", addr)
			}
			got, want = new(snapshot.CO), co
		}
		if err := json.Unmarshal([]byte(body), got); err != nil {
			t.Fatalf("addr=%q prefix=%q: bad JSON: %v", addr, prefix, err)
		}
		// Compare by content: re-encode both compactly, since a
		// decoded empty address list is nil where the view's is not.
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("addr=%q prefix=%q: served %s, struct API %s", addr, prefix, g, w)
		}
	})
}
