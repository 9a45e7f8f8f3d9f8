package comap

import (
	"context"
	"fmt"

	"repro/internal/probesched"
	"repro/internal/symtab"
)

// Result bundles everything one end-to-end run of the cable pipeline
// produces: the raw collection, the Phase 1 mapping, and the Phase 2
// inference.
type Result struct {
	Collection *Collection
	Mapping    *Mapping
	Inference  *Inference
	// Coverage accounts for how completely the (possibly faulted)
	// measurement plane was observed; see CoverageReport.
	Coverage CoverageReport
	// Seed is the campaign's scenario seed, surfaced in the Report as
	// generated_seed.
	Seed int64

	// workers is the parallelism the pipeline ran with; post-hoc
	// analyses on the Result (StageAdjacencies) reuse it.
	workers int
}

// Close releases the collection's spill files when the campaign ran
// windowed. Post-hoc path scans (StageAdjacencies, digest serializers)
// must run before Close; everything else on the Result stays valid.
func (r *Result) Close() error {
	if r == nil || r.Collection == nil {
		return nil
	}
	return r.Collection.Close()
}

// Run executes the full pipeline: collection, mapping, graphs. The
// campaign's Parallelism knob drives the inference half exactly as it
// drives collection — one worker-count setting end to end, with
// byte-identical output at any value.
func Run(c *Campaign) *Result {
	r, err := RunContext(context.Background(), c)
	if err != nil {
		panic(fmt.Errorf("comap: pipeline aborted: %w", err))
	}
	return r
}

// RunContext is Run with cooperative cancellation threaded into the
// collection's flush loop (see Campaign.RunContext); inference only
// starts once collection completed.
func RunContext(ctx context.Context, c *Campaign) (*Result, error) {
	col, err := c.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	m := BuildMappingParallel(col, c.DNS, c.ISP, c.Parallelism)
	inf := BuildGraphsParallel(col, m, c.Parallelism)
	return &Result{
		Collection: col,
		Mapping:    m,
		Inference:  inf,
		Coverage:   BuildCoverage(col, inf),
		Seed:       c.Seed,
		workers:    c.Parallelism,
	}, nil
}

// StageAdjacencies counts the distinct intra-region CO adjacencies each
// collection stage observed (independently — a pair seen by several
// stages counts for each), quantifying §5.1's claim that directly
// targeting CO router interfaces reveals several times more
// interconnections than the /24 sweep alone. The path scan shards
// across the pipeline's workers; per-stage pair sets union across
// shards, so the counts are shard-order independent.
func (r *Result) StageAdjacencies() map[string]int {
	pool := probesched.New(r.workers, nil)
	// Region lookups go through a snapshot of the per-symbol region tags
	// (the interned table is append-only, so the snapshot covers every
	// symbol the mapping can produce), hops resolve to COs through the
	// dense per-AddrID column, and the pair sets are keyed by packed
	// interned symbols — no strings or address hashes on the scan path.
	m := r.Mapping
	regions := make([]struct {
		region symtab.Sym
		ok     bool
	}, m.Syms.Len())
	for s := range regions {
		if rg, ok := regionOf(m.Syms.Str(symtab.Sym(s))); ok {
			regions[s].region = m.Syms.Intern(rg)
			regions[s].ok = true
		}
	}
	coOf := coByID(pool, r.Collection, m)
	perStage := foldPaths(pool, r.Collection,
		func() map[string]map[uint64]struct{} { return map[string]map[uint64]struct{}{} },
		func(acc map[string]map[uint64]struct{}, _ int, p Path, stage string) map[string]map[uint64]struct{} {
			for h := 1; h < len(p.Hops); h++ {
				if p.Gaps[h] {
					continue
				}
				a, b := coOf[p.Hops[h-1]], coOf[p.Hops[h]]
				if a == noCO || b == noCO || a == b {
					continue
				}
				ra, rb := regions[a], regions[b]
				if !ra.ok || !rb.ok || ra.region != rb.region {
					continue
				}
				if acc[stage] == nil {
					acc[stage] = map[uint64]struct{}{}
				}
				acc[stage][symPair(a, b)] = struct{}{}
			}
			return acc
		},
		func(into, from map[string]map[uint64]struct{}) map[string]map[uint64]struct{} {
			for stage, pairs := range from {
				into[stage] = mergeSet(into[stage], pairs)
			}
			return into
		})
	out := map[string]int{}
	for stage, pairs := range perStage {
		out[stage] = len(pairs)
	}
	return out
}
