package probesched_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comap"
	"repro/internal/netsim"
	"repro/internal/probesched"
)

// BenchmarkParallelCampaign runs the quickstart cable campaign
// end-to-end (collection + inference) across the worker grid. The
// outputs are byte-identical — see TestCampaignDeterministic-
// AcrossParallelism — so the ratio of these timings is pure scheduler
// speedup. On a single-core host the workload is CPU-bound and the
// ratio stays ~1; the speedup materializes with GOMAXPROCS > 1.
//
// Beyond -benchmem's per-op totals, the bench reports allocation cost
// normalized per traceroute (allocs/trace, KB/trace): per-op numbers
// move when the scenario grows, but the per-trace cost is what the
// memory engine actually controls, so it is the comparable figure
// across PRs.
func BenchmarkParallelCampaign(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var allocs, bytes float64
			traces := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := quickstartCampaign(workers)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				res := comap.Run(c)
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				allocs += float64(m1.Mallocs - m0.Mallocs)
				bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
				traces += res.Collection.TracesRun
				if res.Collection.NumPaths() == 0 {
					b.Fatal("campaign collected no paths")
				}
			}
			if traces > 0 {
				b.ReportMetric(allocs/float64(traces), "allocs/trace")
				b.ReportMetric(bytes/float64(traces)/1024, "KB/trace")
			}
		})
	}
}

// BenchmarkCampaignCollect times only the probing half: traceroute
// waves, rDNS-directed stages, and alias resolution, without Phase 1/2
// inference.
func BenchmarkCampaignCollect(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := quickstartCampaign(workers)
				b.StartTimer()
				col := c.Run()
				if col.NumPaths() == 0 {
					b.Fatal("campaign collected no paths")
				}
			}
		})
	}
}

// BenchmarkCampaignInfer times only the analysis half — the B.1
// mapping refinement and the Phase 2 graph construction — over one
// pre-collected quickstart collection.
func BenchmarkCampaignInfer(b *testing.B) {
	c := quickstartCampaign(1)
	col := c.Run()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := comap.BuildMappingParallel(col, c.DNS, c.ISP, workers)
				inf := comap.BuildGraphsParallel(col, m, workers)
				if len(inf.Regions) == 0 {
					b.Fatal("inference produced no regions")
				}
			}
		})
	}
}

// BenchmarkFaultedCampaign runs the quickstart campaign through an
// increasingly lossy measurement plane with retries enabled, at
// GOMAXPROCS workers. The loss rate is encoded in the sub-benchmark
// name so benchjson archives it (the "loss" field): the cost of
// resilience shows up as extra probes per campaign, not extra cost per
// probe.
func BenchmarkFaultedCampaign(b *testing.B) {
	for _, loss := range []float64{0, 0.05, 0.10} {
		b.Run(fmt.Sprintf("loss=%.2f", loss), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := quickstartCampaign(runtime.GOMAXPROCS(0))
				if loss > 0 {
					c.Net.SetFaultPlan(netsim.FaultPlan{Seed: 7, LinkLoss: loss})
					c.Resilience = probesched.Resilience{
						Attempts:         3,
						RetryBackoff:     200 * time.Millisecond,
						BreakerThreshold: 10,
					}
				}
				b.StartTimer()
				res := comap.Run(c)
				if res.Collection.NumPaths() == 0 {
					b.Fatal("faulted campaign collected no paths")
				}
			}
		})
	}
}

func benchWorkerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 && n != 8 {
		counts = append(counts, n)
	}
	return counts
}
