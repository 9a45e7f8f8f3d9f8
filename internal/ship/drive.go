package ship

import (
	"net/netip"
	"regexp"
	"time"

	"repro/internal/dnsdb"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/topogen"
	"repro/internal/vclock"
)

// DriveSample is one measurement of a controlled drive (§7.2.2): the
// paper drove from San Diego toward Irvine while tracerouting to every
// Verizon speedtest server, and checked that the moment the closest
// server switched, the expected user-address bits switched with it.
type DriveSample struct {
	Loc      geo.Point
	UserAddr netip.Addr
	// NearestSpeedtest is the rDNS name of the speedtest server with
	// the lowest RTT from this attachment.
	NearestSpeedtest string
	MinRTT           time.Duration
}

// Drive runs the controlled-drive experiment: attach every stepKm along
// the route and measure RTT to every host whose snapshot rDNS matches
// speedtestRe.
func Drive(net *netsim.Network, dns *dnsdb.DB, clock *vclock.Clock, modem *topogen.Modem,
	from, to geo.Point, steps int, speedtestRe *regexp.Regexp) []DriveSample {
	targets := dns.ScanSnapshotParallel(speedtestRe, 1)
	var out []DriveSample
	var path netsim.PathBuf
	for s := 0; s <= steps; s++ {
		loc := geo.Interpolate(from, to, float64(s)/float64(steps))
		att := modem.Attach(loc)
		sample := DriveSample{Loc: loc, UserAddr: att.UserAddr}
		for _, tgt := range targets {
			var best time.Duration
			for seq := 0; seq < 3; seq++ {
				flow := net.CompileFlowInto(&path, att.Host.Addr, tgt.Addr, uint16(seq))
				r := flow.Probe(clock.Now(), 40, netsim.ICMPEcho, uint32(seq))
				if r.Type != netsim.EchoReply {
					continue
				}
				if best == 0 || r.RTT < best {
					best = r.RTT
				}
				clock.Advance(r.RTT)
			}
			if best == 0 {
				continue
			}
			if sample.MinRTT == 0 || best < sample.MinRTT {
				sample.MinRTT = best
				sample.NearestSpeedtest = tgt.Name
			}
		}
		out = append(out, sample)
		clock.Advance(5 * time.Minute)
	}
	return out
}

// TransitionsAligned verifies the §7.2.2 consistency check: whenever
// the nearest speedtest server changes between consecutive samples, the
// user-address bits in [bitStart, bitStart+bitLen) change in the same
// step, and vice versa. It returns the number of aligned transitions
// and the number of violations.
func TransitionsAligned(samples []DriveSample, bitStart, bitLen int) (aligned, violations int) {
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if prev.NearestSpeedtest == "" || cur.NearestSpeedtest == "" {
			continue
		}
		serverChanged := prev.NearestSpeedtest != cur.NearestSpeedtest
		bitsChanged := v6bits(prev.UserAddr, bitStart, bitLen) != v6bits(cur.UserAddr, bitStart, bitLen)
		switch {
		case serverChanged && bitsChanged:
			aligned++
		case serverChanged != bitsChanged:
			violations++
		}
	}
	return aligned, violations
}

func v6bits(a netip.Addr, start, length int) uint64 {
	b := a.As16()
	var v uint64
	for i := 0; i < length; i++ {
		bit := start + i
		if bit < 0 || bit > 127 {
			continue
		}
		v <<= 1
		if b[bit/8]>>(7-bit%8)&1 == 1 {
			v |= 1
		}
	}
	return v
}
