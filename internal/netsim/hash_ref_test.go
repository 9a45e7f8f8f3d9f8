package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// The probe path's hash formulas as they read before per-flow
// midstates: every draw re-hashed its whole input list through a
// variadic fold, and u64 folded the address in a byte loop. The
// midstate draws must equal these exactly; the Flow-vs-Network tests
// cannot catch a hashing error, since both sides now share one path.

func refMix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func refU64(a netip.Addr) uint64 {
	b := a.As16()
	var h uint64
	for i := 0; i < 16; i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w = w<<8 | uint64(b[i+j])
		}
		h = refMix(h, w)
	}
	return h
}

func refResponseDraw(seed uint64, s ProbeSpec) uint64 {
	return refMix(seed, 0xA11CE, refU64(s.Src), refU64(s.Dst), uint64(s.TTL), uint64(s.Seq))
}

func refJitterDraw(seed uint64, s ProbeSpec) uint64 {
	return refMix(seed, 0x717, refU64(s.Src), refU64(s.Dst), uint64(s.TTL), uint64(s.Seq))
}

func refHostIPID(seed uint64, dst netip.Addr, seq uint32) uint16 {
	return uint16(refMix(seed, 0x1D, refU64(dst), uint64(seq)))
}

func refProbeKey(s ProbeSpec) uint64 {
	return refMix(refU64(s.Src), refU64(s.Dst), uint64(s.TTL), uint64(s.Seq), uint64(s.FlowID), uint64(s.Proto))
}

func refLossDrop(p *FaultPlan, netSeed uint64, s ProbeSpec, links int) bool {
	th := thresh(p.LinkLoss)
	if th == 0 {
		return false
	}
	key := refProbeKey(s)
	for i := 0; i < links; i++ {
		if refMix(netSeed, p.Seed, saltLoss, key, uint64(i))%1_000_000 < th {
			return true
		}
	}
	return false
}

func refVPOffline(p *FaultPlan, netSeed uint64, src netip.Addr, at time.Time) bool {
	if p.offlineSet[src] {
		return true
	}
	th := thresh(p.VPChurnFrac)
	if th == 0 {
		return false
	}
	h := refU64(src)
	if refMix(netSeed, p.Seed, saltChurnSel, h)%1_000_000 >= th {
		return false
	}
	w := at.UnixNano() / int64(p.VPChurnPeriod)
	return refMix(netSeed, p.Seed, saltChurnWin, h, uint64(w))%1_000_000 < thresh(p.VPOfflineFrac)
}

// randAddr draws an IPv4, IPv6 or IPv4-mapped IPv6 address.
func randAddr(rng *rand.Rand) netip.Addr {
	var b [16]byte
	rng.Read(b[:])
	switch rng.Intn(3) {
	case 0:
		return netip.AddrFrom4([4]byte(b[:4]))
	case 1:
		return netip.AddrFrom16(b)
	default:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	}
}

func TestMixStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vs := make([]uint64, rng.Intn(8))
		for j := range vs {
			vs[j] = rng.Uint64()
		}
		if got, want := mix(vs...), refMix(vs...); got != want {
			t.Fatalf("mix(%v) = %x, reference %x", vs, got, want)
		}
		a := randAddr(rng)
		if got, want := u64(a), refU64(a); got != want {
			t.Fatalf("u64(%s) = %x, reference %x", a, got, want)
		}
		// routerPath folds (seed, flowID) once and finishes it per
		// router of the ECMP walk.
		seed, flowID, cur := rng.Uint64(), uint64(rng.Intn(1<<16)), uint64(rng.Int31())
		if got, want := mixStep(mix(seed, flowID), cur), refMix(seed, flowID, cur); got != want {
			t.Fatalf("ECMP pick hash (%x, %d, %d) = %x, reference %x", seed, flowID, cur, got, want)
		}
	}
}

// TestFlowHashMatchesReference checks every per-flow midstate draw —
// the ResponseProb draw, RTT jitter, host IP-ID, fault-plan loss key,
// loss trials and VP churn — against the full-input reference formula
// on random seeds, address families, TTLs and sequence numbers.
func TestFlowHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		seed := rng.Uint64()
		s := ProbeSpec{
			Src: randAddr(rng), Dst: randAddr(rng),
			TTL: uint8(rng.Intn(256)), Proto: Proto(rng.Intn(2)),
			FlowID: uint16(rng.Intn(1 << 16)), Seq: rng.Uint32(),
		}
		fh := newFlowHash(seed, s.Src, s.Dst)
		if got, want := fh.responseDraw(s.TTL, s.Seq), refResponseDraw(seed, s); got != want {
			t.Fatalf("%+v: response draw %x, reference %x", s, got, want)
		}
		if got, want := fh.jitterDraw(s.TTL, s.Seq), refJitterDraw(seed, s); got != want {
			t.Fatalf("%+v: jitter draw %x, reference %x", s, got, want)
		}
		if got, want := fh.hostIPID(s.Seq), refHostIPID(seed, s.Dst, s.Seq); got != want {
			t.Fatalf("%+v: host IP-ID %x, reference %x", s, got, want)
		}
		key := fh.probeKey(s.TTL, s.Proto, s.Seq, s.FlowID)
		if want := refProbeKey(s); key != want {
			t.Fatalf("%+v: loss key %x, reference %x", s, key, want)
		}
		plan := FaultPlan{Seed: rng.Uint64(), LinkLoss: 0.05 + 0.5*rng.Float64(), VPChurnFrac: 0.5, VPOfflineFrac: 0.5}
		plan.normalize()
		links := 1 + rng.Intn(20)
		if got, want := plan.lossDrop(seed, key, links), refLossDrop(&plan, seed, s, links); got != want {
			t.Fatalf("%+v: loss over %d links %v, reference %v", s, links, got, want)
		}
		at := time.Unix(0, rng.Int63n(1<<50))
		if got, want := plan.vpOffline(seed, s.Src, fh.src, at), refVPOffline(&plan, seed, s.Src, at); got != want {
			t.Fatalf("%+v at %v: VP offline %v, reference %v", s, at, got, want)
		}
	}
}
