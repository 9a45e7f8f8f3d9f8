package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/comap"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// quickstartService builds a service over the quickstart-scale
// single-region campaign, injected directly so the test does not pay
// for the full-profile study run.
func quickstartService(t testing.TB) *service {
	t.Helper()
	scenario := topogen.NewScenario(42)
	profile := topogen.ComcastProfile()
	profile.Regions = []topogen.CableRegionSpec{{
		Name:     "bverton",
		Anchor:   "Beaverton",
		Backbone: []string{"Seattle", "Sunnyvale"},
		Type:     topogen.DualAgg,
		EdgeCOs:  12,
	}}
	isp := scenario.BuildCable(profile)
	var vps []netip.Addr
	for _, city := range []string{"Seattle", "San Francisco", "Denver", "Chicago", "New York"} {
		vps = append(vps, scenario.AddTransitVP(city).Addr)
	}
	res := comap.Run(&comap.Campaign{
		Net:       scenario.Net,
		DNS:       scenario.DNS,
		Clock:     vclock.New(scenario.Epoch()),
		ISP:       "comcast",
		Seed:      42,
		VPs:       vps,
		Announced: isp.Announced,
	})

	svc := newService("cable", 42, nil)
	svc.isps = []string{"comcast"}
	svc.results["comcast"] = res
	svc.stores["comcast"] = &snapshot.Store{}
	if err := svc.compile("comcast"); err != nil {
		t.Fatal(err)
	}
	return svc
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func getJSON(t *testing.T, h http.Handler, url string, v any) {
	t.Helper()
	code, body := get(t, h, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

func TestEndpointsServeSnapshot(t *testing.T) {
	svc := quickstartService(t)
	h := svc.handler()
	snap := svc.stores["comcast"].Load()

	var health struct {
		Status   string            `json:"status"`
		Versions map[string]uint64 `json:"versions"`
	}
	getJSON(t, h, "/v1/health", &health)
	if health.Status != "ok" || health.Versions["comcast"] != 1 {
		t.Errorf("health = %+v, want ok with comcast v1", health)
	}

	var stats snapshot.Stats
	getJSON(t, h, "/v1/stats", &stats)
	if stats.ISP != "comcast" || stats.COs == 0 || stats.SchemaVersion != comap.ReportSchemaVersion {
		t.Errorf("stats = %+v", stats)
	}

	// Every region the snapshot knows must be extractable, and the names
	// endpoint must list it.
	var names []string
	getJSON(t, h, "/v1/regions", &names)
	if len(names) == 0 {
		t.Fatal("no regions served")
	}
	for _, name := range names {
		var rr comap.RegionReport
		getJSON(t, h, "/v1/region/"+name, &rr)
		if rr.Name != name {
			t.Errorf("region %q extract named %q", name, rr.Name)
		}
	}
	if code, _ := get(t, h, "/v1/region/atlantis"); code != http.StatusNotFound {
		t.Errorf("missing region = %d, want 404", code)
	}

	// Address lookup round-trips through the LPM tables.
	probe := snap.LookupPrefix(netip.MustParsePrefix("0.0.0.0/0"))[0].Addrs[0]
	var co snapshot.CO
	getJSON(t, h, "/v1/lookup?addr="+probe.String(), &co)
	if co.Key == "" || co.Region == "" {
		t.Errorf("lookup(%s) = %+v", probe, co)
	}
	var cos []snapshot.CO
	getJSON(t, h, "/v1/lookup?prefix=0.0.0.0/0", &cos)
	if len(cos) == 0 {
		t.Error("whole-space prefix lookup returned nothing")
	}
	if code, _ := get(t, h, "/v1/lookup?addr=203.0.113.99"); code != http.StatusNotFound {
		t.Errorf("unmapped addr = %d, want 404", code)
	}
	if code, _ := get(t, h, "/v1/lookup?addr=not-an-ip"); code != http.StatusBadRequest {
		t.Errorf("bad addr = %d, want 400", code)
	}
	if code, _ := get(t, h, "/v1/lookup"); code != http.StatusBadRequest {
		t.Errorf("no query = %d, want 400", code)
	}

	// The report endpoint serves the pre-marshaled bytes verbatim.
	if code, body := get(t, h, "/v1/report"); code != http.StatusOK || body != string(snap.ReportJSON()) {
		t.Errorf("report endpoint differs from snapshot ReportJSON (code %d)", code)
	}

	var table1 map[string]int
	getJSON(t, h, "/v1/table1", &table1)
	total := 0
	for _, n := range table1 {
		total += n
	}
	if total != stats.Regions {
		t.Errorf("table1 sums to %d regions, want %d", total, stats.Regions)
	}
	var fig7 []snapshot.RegionSize
	getJSON(t, h, "/v1/figure7", &fig7)
	if len(fig7) != stats.Regions {
		t.Errorf("figure7 rows = %d, want %d", len(fig7), stats.Regions)
	}

	if code, body := get(t, h, "/v1/stats?isp=atlantis"); code != http.StatusNotFound || !strings.Contains(body, "unknown operator") {
		t.Errorf("unknown isp = %d %q, want 404", code, body)
	}
}

// TestRecompileSwapsVersion: a refresh re-runs the study, recompiles
// every operator's snapshot, and republishes it at the next version;
// queries see the new artifact.
func TestRecompileSwapsVersion(t *testing.T) {
	svc := newService("cable", 7, []core.Option{core.WithProbeBudget(2000)})
	ctx := context.Background()
	if err := svc.bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	h := svc.handler()
	for _, isp := range svc.isps {
		var stats snapshot.Stats
		getJSON(t, h, "/v1/stats?isp="+isp, &stats)
		if stats.Version != 2 {
			t.Errorf("%s stats.Version = %d after refresh, want 2", isp, stats.Version)
		}
		if !svc.stores[isp].Load().Consistent() {
			t.Errorf("%s refreshed snapshot inconsistent", isp)
		}
	}
}
