// Command attmap runs the AT&T case study (paper §6): bootstrapping
// from lightspeed rDNS, McTraceroute WiFi vantage points, DPR through
// the MPLS tunnels, last-mile-link EdgeCO clustering, and the San Diego
// CO-level topology of Fig. 13, plus the Table 2 latency study.
//
// Usage:
//
//	attmap [-seed N] [-pings N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 21, "scenario seed")
	pings := flag.Int("pings", 100, "TTL-limited echos per customer (Table 2)")
	cfg.BindParallel(flag.CommandLine)
	flag.Parse()

	fmt.Printf("building the AT&T-like scenario (seed %d) and running the campaign...\n", cfg.Seed)
	stAny, err := core.NewStudy("att", cfg.Seed, cfg.Options()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "attmap:", err)
		os.Exit(2)
	}
	st := stAny.(*core.ATTStudy)
	res := st.Result()

	fmt.Printf("\n== region inventory (Appendix C) ==\n")
	fmt.Printf("lightspeed city codes with backbone tags: %d\n", len(res.CodeToTag))
	codes := make([]string, 0, len(res.CodeToTag))
	for c := range res.CodeToTag {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	shown := 0
	for _, c := range codes {
		if shown++; shown > 8 {
			fmt.Printf("  ... and %d more\n", len(codes)-8)
			break
		}
		fmt.Printf("  %s -> %s (%d lspgws)\n", c, res.CodeToTag[c], len(res.Lspgws[c]))
	}

	fig := st.Figure13()
	fmt.Printf("\n== San Diego (Fig. 13) ==\n")
	fmt.Printf("router level:  %d backbone, %d aggregation, %d edge routers\n",
		fig.BackboneRouters, fig.AggRouters, fig.EdgeRouters)
	fmt.Printf("CO level:      %d EdgeCOs (%d with two routers, %d dual-homed to two aggs)\n",
		fig.EdgeCOs, fig.TwoRouterEdges, fig.DualHomedEdges)
	fmt.Printf("backbone:      %d BackboneCO (full mesh to aggs: %v)\n", fig.BackboneCOs, fig.FullMesh)

	edge, agg := st.Table6()
	fmt.Printf("\n== router prefixes (Table 6) ==\n")
	for _, p := range edge {
		fmt.Printf("  edge %s\n", p)
	}
	for _, p := range agg {
		fmt.Printf("  agg  %s\n", p)
	}

	ark, mc := st.McComparison()
	fmt.Printf("\n== McTraceroute (§6.1) ==\n")
	fmt.Printf("distinct paths: ark/atlas=%d  mctraceroute=%d  (ratio %.2f; paper ~0.5)\n",
		ark, mc, float64(ark)/float64(mc))

	fmt.Printf("\n== EdgeCO latency from a Los Angeles cloud VM (§6.3, Table 2) ==\n")
	lat := st.EdgeLatency(*pings)
	var ms []float64
	for _, d := range lat.PerDevice {
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	var mean float64
	for _, v := range ms {
		mean += v
	}
	mean /= float64(len(ms))
	fmt.Printf("devices=%d min=%.1fms mean=%.1fms max=%.1fms\n", len(ms), ms[0], mean, ms[len(ms)-1])
	outliers := 0
	for _, v := range ms {
		if v > 2*mean {
			outliers++
		}
	}
	fmt.Printf("outliers above 2x the mean: %d (the Calexico / El Centro effect)\n", outliers)
}
