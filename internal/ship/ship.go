// Package ship implements ShipTraceroute (§7.1): smartphones shipped by
// ground across the U.S., waking hourly to cycle airplane mode,
// re-register with the packet core, log the serving cell ID, and run an
// energy-efficient round of traceroutes to destinations in neighboring
// ASes plus a latency probe to a reference server.
package ship

import (
	"net/netip"
	"time"

	"repro/internal/cellgeo"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/probesched"
	"repro/internal/topogen"
	"repro/internal/traceroute"
	"repro/internal/vclock"
)

// Itinerary is one shipment: a truck route through waypoint cities plus
// a dwell at the destination hub.
type Itinerary struct {
	Name string
	// Waypoints are city names along the route, origin first.
	Waypoints []string
	// DwellRounds holds the parcel at the destination for extra
	// stationary measurement rounds (hubs hold parcels for ~a day),
	// which is what separates re-registration effects from movement.
	DwellRounds int
}

// Round is one hourly measurement.
type Round struct {
	At time.Time
	// TrueLoc is the parcel's actual position (ground truth, for map
	// scoring); TowerLoc is what OpenCellID reports for the logged cell
	// ID and is all the inference may use.
	TrueLoc  geo.Point
	CellID   uint64
	TowerLoc geo.Point
	// OK is false when in-vehicle signal was too weak to measure.
	OK bool
	// UserAddr is the phone's address for this registration.
	UserAddr netip.Addr
	// Hops are the responsive hops of the round's traceroute toward the
	// first target (all targets share the in-carrier path, §7.1.1).
	Hops []netip.Addr
	// MinRTT is the minimum RTT to the reference server (0 when
	// unreached).
	MinRTT time.Duration
	// Active is the radio-active time of the round (energy input).
	Active time.Duration
	// Paused marks rounds skipped by the accelerometer rest detector
	// (no wake-up, no probing).
	Paused bool
	// Stats is the round's probe-outcome ledger: every traceroute probe
	// and reference-server ping lands in exactly one bucket (accounting
	// only — the inference never reads it).
	Stats probesched.ProbeStats
}

// Campaign runs shipments for one carrier.
type Campaign struct {
	Net    *netsim.Network
	Clock  *vclock.Clock
	Modem  *topogen.Modem
	CellDB *cellgeo.DB
	// Targets are the traceroute destinations (one per neighboring AS;
	// the paper found one suffices since in-carrier paths coincide).
	Targets []netip.Addr
	// Server is the reference host for the Fig. 18 latency map.
	Server netip.Addr
	// SpeedKmh is the truck speed (default 80).
	SpeedKmh float64
	// SignalProb overrides the per-round signal model when > 0.
	SignalProb float64
	// CoverageBias shifts the signal model up or down; carriers differ
	// in rural coverage (the paper measured 75-84% round success).
	CoverageBias float64
	// Mode selects the scamper probing schedule (default Parallel, the
	// ShipTraceroute modification).
	Mode traceroute.Mode
	// PauseAtRest implements the §8 scalability idea: the accelerometer
	// detects the parcel resting at a hub and pauses measurement after
	// the first stationary round, saving wake-up energy at the cost of
	// the stationary re-registration samples.
	PauseAtRest bool
	// Parallelism is the probe-scheduler worker count for each round's
	// per-target traceroutes (0 selects GOMAXPROCS). Rounds are
	// byte-identical at any value — see internal/probesched.
	Parallelism int
	// Resilience opts the round traceroutes into retries, backoff, and
	// probe budgets (zero value keeps historical behavior).
	Resilience probesched.Resilience

	rng signalRNG
}

// signalRNG is a tiny deterministic generator for signal draws, seeded
// by the campaign inputs so runs are reproducible.
type signalRNG struct{ state uint64 }

func (r *signalRNG) next() float64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return float64(r.state>>11) / float64(1<<53)
}

// Run executes one itinerary and returns its rounds.
func (c *Campaign) Run(it Itinerary) []Round {
	if c.SpeedKmh == 0 {
		c.SpeedKmh = 80
	}
	c.rng.state = uint64(len(it.Name))*2654435761 + uint64(len(it.Waypoints))
	var rounds []Round
	// Walk the route, one round per hour of driving.
	for i := 0; i+1 < len(it.Waypoints); i++ {
		a := geo.MustByName(it.Waypoints[i])
		b := geo.MustByName(it.Waypoints[i+1])
		legKm := geo.DistanceKm(a.Point, b.Point) * 1.25 // roads wiggle
		hours := int(legKm/c.SpeedKmh) + 1
		for h := 0; h < hours; h++ {
			f := float64(h) / float64(hours)
			loc := geo.Interpolate(a.Point, b.Point, f)
			rounds = append(rounds, c.round(loc))
			c.Clock.Advance(time.Hour)
		}
	}
	// Destination dwell.
	dest := geo.MustByName(it.Waypoints[len(it.Waypoints)-1])
	for d := 0; d < it.DwellRounds; d++ {
		if c.PauseAtRest && d > 0 {
			// The accelerometer saw no motion since the last round:
			// stay asleep in airplane mode.
			rounds = append(rounds, Round{At: c.Clock.Now(), TrueLoc: dest.Point, Paused: true})
		} else {
			rounds = append(rounds, c.round(dest.Point))
		}
		c.Clock.Advance(time.Hour)
	}
	return rounds
}

// round wakes the phone, re-registers, and measures.
func (c *Campaign) round(loc geo.Point) Round {
	r := Round{At: c.Clock.Now(), TrueLoc: loc}
	r.CellID = c.CellDB.CellIDAt(loc)
	r.TowerLoc, _ = c.CellDB.Lookup(r.CellID)

	if !c.hasSignal(loc) {
		return r
	}
	r.OK = true
	att := c.Modem.Attach(loc)
	r.UserAddr = att.UserAddr

	eng := &traceroute.Engine{
		Net: c.Net, Clock: c.Clock, Mode: c.Mode,
		Attempts: 2, GapLimit: 4, MaxTTL: 24,
	}
	eng.ApplyResilience(c.Resilience)
	// The per-target traceroutes of a round are independent (the phone
	// runs them back to back), so they fan out over the probe scheduler.
	pool := probesched.New(c.Parallelism, c.Clock)
	jobs := make([]probesched.Request, len(c.Targets))
	for i, dst := range c.Targets {
		jobs[i] = probesched.Request{Src: att.Host.Addr, Dst: dst}
	}
	for i, tr := range eng.Traces(pool, jobs) {
		r.Active += tr.ActiveTime
		r.Stats.Add(tr.Stats())
		if i == 0 {
			for _, h := range tr.ResponsiveHops() {
				r.Hops = append(r.Hops, h.Addr)
			}
		}
	}
	if c.Server.IsValid() {
		best := time.Duration(0)
		var path netsim.PathBuf
		for seq := 0; seq < 4; seq++ {
			flow := c.Net.CompileFlowInto(&path, att.Host.Addr, c.Server, uint16(seq))
			reply := flow.Probe(c.Clock.Now(), 40, netsim.ICMPEcho, uint32(seq))
			r.Stats.Observe(reply.Type != netsim.Timeout,
				reply.Outcome() == netsim.OutcomeRateLimited, false)
			if reply.Type != netsim.EchoReply {
				continue
			}
			if best == 0 || reply.RTT < best {
				best = reply.RTT
			}
			c.Clock.Advance(reply.RTT)
		}
		r.MinRTT = best
	}
	return r
}

// hasSignal models in-vehicle coverage: strong near towns, weak in the
// emptiest stretches (the paper lost 16-25% of rounds).
func (c *Campaign) hasSignal(loc geo.Point) bool {
	p := c.SignalProb
	if p == 0 {
		nearest := geo.Nearest(loc)
		d := geo.DistanceKm(loc, nearest.Point)
		switch {
		case d < 60:
			p = 0.93
		case d < 150:
			p = 0.72
		default:
			p = 0.45
		}
		p += c.CoverageBias
		if p > 0.99 {
			p = 0.99
		}
		if p < 0.05 {
			p = 0.05
		}
	}
	return c.rng.next() < p
}

// Shipments returns the paper-style campaign: twelve destinations from
// a San Diego origin whose routes traverse 40+ states (Fig. 15).
func Shipments() []Itinerary {
	return []Itinerary{
		{Name: "seattle", Waypoints: []string{"San Diego", "Los Angeles", "Bakersfield", "Fresno", "Sacramento", "Redding", "Medford", "Eugene", "Portland", "Seattle"}, DwellRounds: 10},
		{Name: "boston", Waypoints: []string{"San Diego", "Phoenix", "Albuquerque", "Amarillo", "Oklahoma City", "Tulsa", "Saint Louis", "Indianapolis", "Columbus", "Pittsburgh", "Harrisburg", "Allentown", "New York", "Hartford", "Boston"}, DwellRounds: 10},
		{Name: "miami", Waypoints: []string{"San Diego", "Tucson", "El Paso", "San Antonio", "Houston", "Baton Rouge", "New Orleans", "Gulfport", "Mobile", "Tallahassee", "Orlando", "Miami"}, DwellRounds: 10},
		{Name: "fargo", Waypoints: []string{"San Diego", "Las Vegas", "Salt Lake City", "Pocatello", "Billings", "Bismarck", "Fargo"}, DwellRounds: 8},
		{Name: "chicago", Waypoints: []string{"San Diego", "Flagstaff", "Albuquerque", "Denver", "Omaha", "Des Moines", "Chicago"}, DwellRounds: 10},
		{Name: "atlanta", Waypoints: []string{"San Diego", "El Paso", "Dallas", "Little Rock", "Memphis", "Birmingham", "Atlanta"}, DwellRounds: 10},
		{Name: "washington", Waypoints: []string{"San Diego", "Amarillo", "Oklahoma City", "Fayetteville", "Nashville", "Knoxville", "Roanoke", "Washington"}, DwellRounds: 8},
		{Name: "minneapolis", Waypoints: []string{"San Diego", "Denver", "Cheyenne", "Rapid City", "Sioux Falls", "Minneapolis"}, DwellRounds: 8},
		{Name: "louisville", Waypoints: []string{"San Diego", "Albuquerque", "Wichita", "Kansas City", "Saint Louis", "Louisville"}, DwellRounds: 8},
		{Name: "detroit", Waypoints: []string{"San Diego", "Denver", "Lincoln", "Des Moines", "Madison", "Milwaukee", "Grand Rapids", "Detroit"}, DwellRounds: 8},
		{Name: "maine", Waypoints: []string{"San Diego", "Denver", "Chicago", "Toledo", "Cleveland", "Buffalo", "Syracuse", "Albany", "Burlington", "Montpelier", "Concord", "Portland, ME"}, DwellRounds: 8},
		{Name: "norfolk", Waypoints: []string{"San Diego", "Dallas", "Memphis", "Chattanooga", "Knoxville", "Asheville", "Charlotte", "Raleigh", "Norfolk"}, DwellRounds: 8},
	}
}

// StatesCovered returns the distinct states the rounds traversed
// (Fig. 15's 40-state coverage claim), approximated by nearest city.
func StatesCovered(rounds []Round) []string {
	seen := map[string]bool{}
	for _, r := range rounds {
		seen[geo.NearestState(r.TrueLoc)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sortStrings(out)
	return out
}

// SuccessRate reports the fraction of attempted (non-paused) rounds
// with usable signal.
func SuccessRate(rounds []Round) float64 {
	ok, attempted := 0, 0
	for _, r := range rounds {
		if r.Paused {
			continue
		}
		attempted++
		if r.OK {
			ok++
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(ok) / float64(attempted)
}

// JourneyEnergy totals the battery cost of a journey in mAh under the
// given power model: each hour sleeps in airplane mode, and non-paused
// rounds additionally pay the wake-up plus radio-active drain.
func JourneyEnergy(rounds []Round, m energy.Model) float64 {
	var total float64
	for _, r := range rounds {
		total += m.SleepAirplanemAhPerHour
		if r.Paused {
			continue
		}
		total += m.WakeEnergymAh + r.Active.Seconds()*m.ActiveDrawmAhPerSec
	}
	return total
}

// LatencyMap aggregates per-hex minimum RTT in milliseconds (Fig. 18).
func LatencyMap(rounds []Round, hexSizeDeg float64) []geo.HexValue {
	agg := geo.NewHexAggregate(hexSizeDeg)
	for _, r := range rounds {
		if !r.OK || r.MinRTT == 0 {
			continue
		}
		agg.Add(r.TowerLoc, float64(r.MinRTT)/float64(time.Millisecond))
	}
	return agg.Results()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
