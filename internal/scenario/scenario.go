// Package scenario is the declarative sweep engine: it runs many full
// reproduction pipelines as one workload and reduces them into a
// cross-scenario report.
//
// A Spec names one pipeline variant — seed and scale, plus the netgen
// ablations (skitter monitor count, AS count factor, extra-link
// density, distance-independent link fraction, uniform "Waxman"
// placement). A Matrix expands axis value lists into the cross product
// of Specs in a fixed, documented order.
// Sweep executes the specs concurrently as shared-nothing pipelines —
// GOMAXPROCS bounds how many run at once and, as everywhere, the
// goroutines inside them — and reduces results in spec order into a
// Report: per-scenario report digests (core.Digest) plus sensitivity
// tables showing how the paper's headline metrics move along each
// axis.
//
// The digests double as the regression net: testdata/golden holds the
// digest and metrics for a fixed spec set, pinned by TestGoldenCorpus.
// Any change to pipeline output fails the test until the corpus is
// regenerated with
//
//	go test ./internal/scenario -run TestGoldenCorpus -update
//
// making every output drift an explicit, reviewed golden update.
package scenario

import (
	"fmt"
	"strings"

	"geonet/internal/core"
	"geonet/internal/netgen"
)

// Spec names one pipeline variant. The zero value of every optional
// field means "pipeline default": Monitors and ASCountFactor treat
// <= 0 as default, and the two fractional ablations use nil. Seed and
// Scale are required.
type Spec struct {
	// Name overrides the derived Label in output and golden filenames.
	Name  string  `json:"name,omitempty"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`

	// Netgen ablations.
	Monitors      int     `json:"monitors,omitempty"`        // skitter monitor count
	ASCountFactor float64 `json:"as_count_factor,omitempty"` // >1 = more, smaller ASes
	// ExtraLinks and DistIndepFrac are pointers because 0 is a
	// meaningful ablation value (a tree-only AS, no long hauls).
	ExtraLinks       *float64 `json:"extra_links,omitempty"`     // mean extra links per router
	DistIndepFrac    *float64 `json:"dist_indep_frac,omitempty"` // distance-independent link fraction
	UniformPlacement bool     `json:"uniform_placement,omitempty"`
}

// ablated reports whether any generator knob differs from the default.
func (s Spec) ablated() bool {
	return s.Monitors > 0 || s.ASCountFactor > 0 ||
		s.ExtraLinks != nil || s.DistIndepFrac != nil || s.UniformPlacement
}

// Label returns the spec's display name: the explicit Name if set,
// otherwise a canonical slug built from every non-default knob, so two
// distinct specs in one sweep never collide.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed%d-scale%g", s.Seed, s.Scale)
	if s.Monitors > 0 {
		fmt.Fprintf(&b, "-mon%d", s.Monitors)
	}
	if s.ASCountFactor > 0 {
		fmt.Fprintf(&b, "-asx%g", s.ASCountFactor)
	}
	if s.ExtraLinks != nil {
		fmt.Fprintf(&b, "-xl%g", *s.ExtraLinks)
	}
	if s.DistIndepFrac != nil {
		fmt.Fprintf(&b, "-di%g", *s.DistIndepFrac)
	}
	if s.UniformPlacement {
		b.WriteString("-uniform")
	}
	return b.String()
}

// CoreConfig translates the spec into a pipeline configuration,
// validating its scale and any generator ablations once up front so a
// bad axis fails before the sweep launches anything.
func (s Spec) CoreConfig() (core.Config, error) {
	// Only zero means "default" for these knobs; negatives are spec
	// errors, not sentinels.
	if s.Monitors < 0 {
		return core.Config{}, fmt.Errorf("scenario: %s: monitor count must be >= 0", s.Label())
	}
	if s.ASCountFactor < 0 {
		return core.Config{}, fmt.Errorf("scenario: %s: AS count factor must be >= 0", s.Label())
	}
	cfg := core.Config{Seed: s.Seed, Scale: s.Scale}
	if s.ablated() {
		g := netgen.DefaultConfig()
		if s.Monitors > 0 {
			g.NumSkitterMonitors = s.Monitors
		}
		if s.ASCountFactor > 0 {
			g.ASCountFactor = s.ASCountFactor
		}
		if s.ExtraLinks != nil {
			g.MeanExtraLinksPerRouter = *s.ExtraLinks
		}
		if s.DistIndepFrac != nil {
			g.DistanceIndependentFraction = *s.DistIndepFrac
		}
		g.UniformPlacement = s.UniformPlacement
		cfg.Gen = &g
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("scenario: %s: %w", s.Label(), err)
	}
	return cfg, nil
}

// Matrix lists value axes to sweep. Specs expands the cross product in
// a fixed order — seeds vary slowest, then scales, monitors, AS count
// factors, extra-link densities, distance-independent fractions, and
// placement fastest — so sweep output and golden corpora are stable
// regardless of how the matrix was written. An empty axis contributes
// the single default value.
type Matrix struct {
	Seeds  []int64   `json:"seeds"`
	Scales []float64 `json:"scales"`

	Monitors       []int     `json:"monitors,omitempty"`
	ASCountFactors []float64 `json:"as_count_factors,omitempty"`
	ExtraLinks     []float64 `json:"extra_links,omitempty"`
	DistIndepFracs []float64 `json:"dist_indep_fracs,omitempty"`
	// Placement lists placement modes: "population" (default) and/or
	// "uniform".
	Placement []string `json:"placement,omitempty"`
}

// Specs expands the matrix. It errors on an empty required axis or an
// unknown placement mode.
func (m Matrix) Specs() ([]Spec, error) {
	if len(m.Seeds) == 0 {
		return nil, fmt.Errorf("scenario: matrix needs at least one seed")
	}
	if len(m.Scales) == 0 {
		return nil, fmt.Errorf("scenario: matrix needs at least one scale")
	}
	uniform := make([]bool, 0, 2)
	if len(m.Placement) == 0 {
		uniform = append(uniform, false)
	}
	for _, p := range m.Placement {
		switch p {
		case "population":
			uniform = append(uniform, false)
		case "uniform":
			uniform = append(uniform, true)
		default:
			return nil, fmt.Errorf("scenario: unknown placement %q (want population or uniform)", p)
		}
	}
	monitors := m.Monitors
	if len(monitors) == 0 {
		monitors = []int{0}
	}
	asFactors := m.ASCountFactors
	if len(asFactors) == 0 {
		asFactors = []float64{0}
	}

	var specs []Spec
	for _, seed := range m.Seeds {
		for _, scale := range m.Scales {
			for _, mon := range monitors {
				for _, asf := range asFactors {
					for _, xl := range orDefault(m.ExtraLinks) {
						for _, di := range orDefault(m.DistIndepFracs) {
							for _, uni := range uniform {
								specs = append(specs, Spec{
									Seed:             seed,
									Scale:            scale,
									Monitors:         mon,
									ASCountFactor:    asf,
									ExtraLinks:       xl,
									DistIndepFrac:    di,
									UniformPlacement: uni,
								})
							}
						}
					}
				}
			}
		}
	}
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		if _, dup := seen[s.Label()]; dup {
			return nil, fmt.Errorf("scenario: duplicate spec %q (repeated axis value?)", s.Label())
		}
		seen[s.Label()] = struct{}{}
	}
	return specs, nil
}

// orDefault turns a float axis into pointer values, with an absent
// axis contributing the single default (nil).
func orDefault(vals []float64) []*float64 {
	if len(vals) == 0 {
		return []*float64{nil}
	}
	out := make([]*float64, len(vals))
	for i := range vals {
		v := vals[i]
		out[i] = &v
	}
	return out
}
