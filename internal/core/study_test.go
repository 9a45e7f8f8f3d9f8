package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/comap"
	"repro/internal/core"
)

// TestStudyRegistryNames checks the three paper studies are registered
// under their section names.
func TestStudyRegistryNames(t *testing.T) {
	want := []string{"att", "cable", "mobile"}
	if got := core.StudyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StudyNames() = %v, want %v", got, want)
	}
	if _, err := core.NewStudy("nope", 1); err == nil {
		t.Fatal("NewStudy(nope) did not error")
	}
}

// TestStudyRunMatchesDirectConstructor checks launching the cable study
// through the registry produces the same inference a direct constructor
// call does: the Study interface is a uniform entry point, not a second
// pipeline.
func TestStudyRunMatchesDirectConstructor(t *testing.T) {
	if testing.Short() {
		t.Skip("full cable campaign; skipped with -short")
	}
	st, err := core.NewStudy("cable", 7, core.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "cable" {
		t.Fatalf("Name() = %q, want cable", st.Name())
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Study != "cable" || res.Seed != 7 {
		t.Fatalf("envelope identifies %q seed %d, want cable seed 7", res.Study, res.Seed)
	}
	reports := res.Reports()
	if len(reports) != 2 {
		t.Fatalf("Reports() returned %d reports, want 2", len(reports))
	}
	direct := core.NewCableStudy(7, core.WithParallelism(2))
	for i, isp := range core.CableISPs {
		if reports[i].ISP != isp {
			t.Fatalf("reports[%d].ISP = %q, want %q (campaign order)", i, reports[i].ISP, isp)
		}
		if reports[i].SchemaVersion != comap.ReportSchemaVersion {
			t.Errorf("%s report schema %d, want %d", isp, reports[i].SchemaVersion, comap.ReportSchemaVersion)
		}
		if reports[i].GeneratedSeed != 7 {
			t.Errorf("%s report generated_seed %d, want 7", isp, reports[i].GeneratedSeed)
		}
		want := direct.Result(isp).BuildReport(isp)
		if !reflect.DeepEqual(reports[i], want) {
			t.Errorf("%s registry-run report differs from direct-constructor report", isp)
		}
	}
}

// TestStudyRunHonorsCancellation checks a canceled context stops a run
// before its first campaign.
func TestStudyRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range core.StudyNames() {
		st, err := core.NewStudy(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(ctx); err == nil {
			t.Errorf("%s: Run with canceled context did not error", name)
		}
	}
}

// TestDirectConstructorsRejectInvalidConfig builds every study through
// its direct constructor with options NewStudy rejects: Run must return
// the named validation error before starting a campaign, and the lazy
// accessors must panic with it rather than fail deep inside a campaign.
func TestDirectConstructorsRejectInvalidConfig(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	opts := []core.Option{core.WithTraceWindow(64), core.WithSpillDir(missing)}
	cases := []struct {
		name   string
		build  func() core.Study
		access func(core.Study)
	}{
		{"cable", func() core.Study { return core.NewCableStudy(7, opts...) },
			func(st core.Study) { st.(*core.CableStudy).Result("comcast") }},
		{"att", func() core.Study { return core.NewATTStudy(7, opts...) },
			func(st core.Study) { st.(*core.ATTStudy).Result() }},
		{"mobile", func() core.Study { return core.NewMobileStudy(7, opts...) },
			func(st core.Study) { st.(*core.MobileStudy).Analysis("verizon") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := core.NewStudy(tc.name, 7, opts...); !errors.Is(err, core.ErrSpillDirMissing) {
				t.Fatalf("NewStudy error = %v, want ErrSpillDirMissing", err)
			}
			st := tc.build()
			if _, err := st.Run(context.Background()); !errors.Is(err, core.ErrSpillDirMissing) || !errors.Is(err, core.ErrInvalidConfig) {
				t.Fatalf("Run error = %v, want ErrSpillDirMissing wrapping ErrInvalidConfig", err)
			}
			if cs, ok := st.(*core.CableStudy); ok {
				if _, err := cs.ResultContext(context.Background(), "comcast"); !errors.Is(err, core.ErrSpillDirMissing) {
					t.Fatalf("ResultContext error = %v, want ErrSpillDirMissing", err)
				}
			}
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, core.ErrSpillDirMissing) {
						t.Fatalf("accessor panicked with %v, want ErrSpillDirMissing", err)
					}
				}()
				tc.access(st)
			}()
		})
	}
}
