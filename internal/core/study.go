package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/attmap"
	"repro/internal/comap"
	"repro/internal/mobilemap"
)

// Study is the uniform handle over the paper's case studies. Before it
// existed every caller was welded to one concrete constructor
// (NewCableStudy, NewATTStudy, NewMobileStudy) and one result shape, so
// a resident service — or any tool that launches "whatever campaign the
// operator named" — had to special-case all three. The registry keys
// builders by name; cmds launch uniformly through NewStudy and only
// downcast when they need a study's figure-specific accessors.
//
// Direct constructor calls in cmds are deprecated in favor of the
// registry; the constructors themselves remain the supported library
// API (tests and examples use them, and the registry builders are thin
// wrappers over them).
type Study interface {
	// Name is the registry key the study was built under.
	Name() string
	// Run executes every measurement campaign the study defines and
	// returns the uniform result envelope. Run honors ctx between
	// campaigns, and the cable study additionally threads it into each
	// campaign's flush loop: cancellation stops at the next probe-batch
	// boundary (digest-neutral) and returns ctx's error. A durable
	// cable campaign cancelled mid-flight leaves its checkpointed spill
	// state on disk and resumes on the next Run.
	Run(ctx context.Context) (*StudyResult, error)
}

// StudyResult is the envelope a Study run fills: one field per result
// family, nil when the study does not produce it. Cable carries the
// full per-operator pipeline results (the only family that builds
// schema-versioned comap Reports and therefore snapshots); ATT and
// Mobile carry their studies' native inferences.
type StudyResult struct {
	// Study and Seed identify the run.
	Study string
	Seed  int64
	// CableISPs lists the operators measured, in campaign order;
	// Cable maps each to its pipeline result.
	CableISPs []string
	Cable     map[string]*comap.Result
	// ATT is the §6 inference, when the study is "att".
	ATT *attmap.Result
	// Mobile maps carrier name to the §7.2 analysis, when "mobile".
	Mobile map[string]*mobilemap.Analysis
}

// Reports builds the schema-versioned comap Reports the run produced,
// one per measured cable operator, in campaign order. Studies without
// cable campaigns return nil — they have no snapshot-servable artifact
// yet.
func (r *StudyResult) Reports() []comap.Report {
	var out []comap.Report
	for _, isp := range r.CableISPs {
		if res := r.Cable[isp]; res != nil {
			out = append(out, res.BuildReport(isp))
		}
	}
	return out
}

// StudyBuilder constructs a Study for a seed; the shared options apply
// exactly as they do on the direct constructors.
type StudyBuilder func(seed int64, opts ...Option) Study

var studyRegistry = map[string]StudyBuilder{}

// RegisterStudy adds a builder under name. Registering a duplicate name
// panics: the registry is assembled from package init functions, and a
// silent overwrite would make "which study ran" depend on init order.
func RegisterStudy(name string, b StudyBuilder) {
	if _, dup := studyRegistry[name]; dup {
		panic(fmt.Sprintf("core: study %q registered twice", name))
	}
	studyRegistry[name] = b
}

// NewStudy builds the named study for a seed. It errors with the known
// names when the name is not registered, and with an ErrInvalidConfig
// error — before building the topology — when the options contradict
// each other (see Config.validate).
func NewStudy(name string, seed int64, opts ...Option) (Study, error) {
	b, ok := studyRegistry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown study %q (known: %v)", name, StudyNames())
	}
	if err := buildConfig(opts).validate(); err != nil {
		return nil, err
	}
	return b(seed, opts...), nil
}

// StudyNames returns the registered study names, sorted.
func StudyNames() []string {
	names := make([]string, 0, len(studyRegistry))
	for n := range studyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterStudy("cable", func(seed int64, opts ...Option) Study {
		return NewCableStudy(seed, opts...)
	})
	RegisterStudy("att", func(seed int64, opts ...Option) Study {
		return NewATTStudy(seed, opts...)
	})
	RegisterStudy("mobile", func(seed int64, opts ...Option) Study {
		return NewMobileStudy(seed, opts...)
	})
}

// CableISPs lists the cable study's operators in campaign order.
var CableISPs = []string{"comcast", "charter"}

// Name implements Study.
func (st *CableStudy) Name() string { return "cable" }

// Run implements Study: both operators' campaigns, in order.
func (st *CableStudy) Run(ctx context.Context) (*StudyResult, error) {
	out := &StudyResult{
		Study:     st.Name(),
		Seed:      st.seed,
		CableISPs: CableISPs,
		Cable:     map[string]*comap.Result{},
	}
	for _, isp := range CableISPs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := st.ResultContext(ctx, isp)
		if err != nil {
			return nil, err
		}
		out.Cable[isp] = r
	}
	return out, nil
}

// Name implements Study.
func (st *ATTStudy) Name() string { return "att" }

// Run implements Study.
func (st *ATTStudy) Run(ctx context.Context) (*StudyResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &StudyResult{Study: st.Name(), Seed: st.seed, ATT: st.Result()}, nil
}

// Name implements Study.
func (st *MobileStudy) Name() string { return "mobile" }

// Run implements Study: every carrier's shipment campaign plus its
// §7.2 analysis.
func (st *MobileStudy) Run(ctx context.Context) (*StudyResult, error) {
	out := &StudyResult{
		Study:  st.Name(),
		Seed:   st.seed,
		Mobile: map[string]*mobilemap.Analysis{},
	}
	for _, carrier := range CarrierNames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out.Mobile[carrier] = st.Analysis(carrier)
	}
	return out, nil
}
