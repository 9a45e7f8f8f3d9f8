// Command shipmap runs the mobile-carrier study (paper §7): it ships
// simulated phones for all three carriers across the 12 itineraries,
// runs the IPv6 bit-field inference of §7.2 over the geo-tagged rounds,
// and prints the Fig. 14-18 and Table 7/8 results.
//
// Usage:
//
//	shipmap [-seed N] [-carrier att-mobile|verizon|tmobile|all] [-map]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ship"
)

func main() {
	var cfg cli.Config
	cfg.BindSeed(flag.CommandLine, 51, "scenario seed")
	carrier := flag.String("carrier", "all", "carrier to report, or all")
	showMap := flag.Bool("map", false, "print the Fig. 18 latency hexes")
	csvPath := flag.String("csv", "", "write the raw rounds of -carrier to a CSV file")
	cfg.BindParallel(flag.CommandLine)
	flag.Parse()

	fmt.Printf("building carriers (seed %d) and shipping phones across 12 itineraries...\n", cfg.Seed)
	stAny, err := core.NewStudy("mobile", cfg.Seed, cfg.Options()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipmap:", err)
		os.Exit(2)
	}
	st := stAny.(*core.MobileStudy)

	carriers := core.CarrierNames
	if *carrier != "all" {
		carriers = []string{*carrier}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shipmap:", err)
			os.Exit(1)
		}
		if err := ship.WriteCSV(f, st.Rounds(carriers[0])); err != nil {
			fmt.Fprintln(os.Stderr, "shipmap:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shipmap:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s rounds to %s\n", carriers[0], *csvPath)
	}

	states, rates := st.Figure15()
	fmt.Printf("\n== coverage (Fig. 15) ==\nstates traversed: %d\n", len(states))
	for _, c := range carriers {
		fmt.Printf("  %-10s rounds=%d success=%.0f%%\n", c, len(st.Rounds(c)), 100*rates[c])
	}

	fmt.Printf("\n== energy (Fig. 14) ==\n")
	for _, r := range st.Figure14() {
		fmt.Printf("  %-28s active=%v energy=%.1fmAh battery=%.1f days\n",
			r.Mode, r.Active.Round(time.Second), r.EnergymAh, r.BatteryDays)
	}

	fmt.Printf("\n== IPv6 address plans (Fig. 16) and architectures (Fig. 17) ==\n")
	for _, c := range carriers {
		a := st.Analysis(c)
		fmt.Printf("  %-10s user=/%d region=%v pgw=%v router=%v %v arch=%s providers=%v\n",
			c, a.UserPrefixLen, a.RegionField, a.PGWField, a.RouterBase, a.RouterField, a.Arch, a.Providers)
	}

	fmt.Printf("\n== packet gateways per region (Tables 7 and 8) ==\n")
	for _, c := range carriers {
		rows := st.PGWTable(c)
		if len(rows) == 0 {
			continue
		}
		exact := 0
		fmt.Printf("  %-10s", c)
		for _, r := range rows {
			fmt.Printf(" %s=%d", r.Region, r.Inferred)
			if r.Inferred == r.Truth {
				exact++
			}
		}
		fmt.Printf("  [%d/%d match ground truth]\n", exact, len(rows))
	}

	if *showMap {
		fmt.Printf("\n== latency map (Fig. 18) ==\n")
		for _, c := range carriers {
			fmt.Printf("%s:\n", c)
			for _, h := range st.Figure18(c) {
				fmt.Printf("  (%6.1f,%7.1f) %4.0fms\n", h.Center.Lat, h.Center.Lon, h.Value)
			}
		}
	}
}
