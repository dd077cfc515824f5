package scenario

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"geonet/internal/analysis"
	"geonet/internal/core"
	"geonet/internal/geo"
	"geonet/internal/parallel"
)

// Metrics are the headline numbers extracted from each scenario for
// the cross-scenario sensitivity tables: Table-I sizes, mapper
// agreement (IxMapper vs EdgeScape over the skitter collection) and
// the Section V distance-preference exponent for the US region.
type Metrics struct {
	Nodes     int `json:"nodes"`     // skitter/ixmapper
	Links     int `json:"links"`     // skitter/ixmapper
	Locations int `json:"locations"` // skitter/ixmapper distinct locations

	MapperSameLoc    float64 `json:"mapper_same_loc"`    // fraction of shared addresses placed identically
	MapperLocJaccard float64 `json:"mapper_loc_jaccard"` // overlap of distinct-location sets

	DistPrefSlope float64 `json:"dist_pref_slope"` // US small-d semi-log slope (per mile)
	DecayMiles    float64 `json:"decay_miles"`     // -1/slope, the Waxman decay length
}

// extractMetrics reduces one finished pipeline to its Metrics.
func extractMetrics(p *core.Pipeline) Metrics {
	sk := p.Dataset("skitter", "ixmapper")
	es := p.Dataset("skitter", "edgescape")
	ag := analysis.MapperAgreement(sk, es)
	// The paper's US parameters: 35-mile bins, small-d fit below 250
	// miles (Figure 5).
	dp := analysis.DistancePreference(sk, geo.US, 35, 100)
	fit := dp.FitSmallD(250)
	return Metrics{
		Nodes:            len(sk.Nodes),
		Links:            len(sk.Links),
		Locations:        sk.NumLocations(),
		MapperSameLoc:    ag.SameLocFrac,
		MapperLocJaccard: ag.LocJaccard,
		DistPrefSlope:    fit.Fit.Slope,
		DecayMiles:       fit.DecayMiles,
	}
}

// Result is one scenario's reduced output.
type Result struct {
	Label   string  `json:"label"`
	Spec    Spec    `json:"spec"`
	Digest  string  `json:"digest"` // core.Digest over every experiment
	Metrics Metrics `json:"metrics"`
	// ElapsedMs is wall-clock run time; it is informational and
	// excluded from golden comparisons.
	ElapsedMs int64 `json:"elapsed_ms,omitempty"`
}

// Report is a finished sweep: results in fixed spec order.
type Report struct {
	Results []Result `json:"results"`
}

// Options controls sweep execution.
type Options struct {
	// Progress, when non-nil, receives one start and one finish line
	// per scenario as the sweep streams along.
	Progress io.Writer
	// Verbose additionally forwards each pipeline's own stage
	// announcements to Progress, prefixed with the scenario label.
	Verbose bool
}

// Validate checks a spec list before anything runs: it must be
// non-empty, every spec's scale and ablations must pass CoreConfig, and
// no two specs may share a label, so a list that bypassed Matrix.Specs
// (a JSON spec array) cannot run the same scenario twice.
func Validate(specs []Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("scenario: empty sweep")
	}
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		if _, dup := seen[s.Label()]; dup {
			return fmt.Errorf("scenario: duplicate spec %q", s.Label())
		}
		seen[s.Label()] = struct{}{}
		if _, err := s.CoreConfig(); err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs every spec as a shared-nothing pipeline, at most
// GOMAXPROCS at once, and reduces the results in spec order. The specs
// are validated before anything runs; pipeline errors abort the sweep
// (joined, one per failed scenario).
func Sweep(specs []Spec, opt Options) (*Report, error) {
	if err := Validate(specs); err != nil {
		return nil, err
	}

	var mu sync.Mutex
	say := func(format string, args ...interface{}) {
		if opt.Progress == nil {
			return
		}
		mu.Lock()
		fmt.Fprintf(opt.Progress, format+"\n", args...)
		mu.Unlock()
	}

	report := &Report{Results: make([]Result, len(specs))}
	errs := make([]error, len(specs))
	say("sweep: %d scenarios", len(specs))
	parallel.ForEach(len(specs), func(i int) {
		spec := specs[i]
		cfg, _ := spec.CoreConfig() // Validate accepted it
		if opt.Verbose && opt.Progress != nil {
			cfg.Progress = &prefixWriter{w: opt.Progress, mu: &mu, prefix: "  [" + spec.Label() + "] "}
		}
		say("[%d/%d] %s: start", i+1, len(specs), spec.Label())
		start := time.Now()
		p, err := core.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("scenario %s: %w", spec.Label(), err)
			say("[%d/%d] %s: FAILED: %v", i+1, len(specs), spec.Label(), err)
			return
		}
		res := Result{
			Label:     spec.Label(),
			Spec:      spec,
			Digest:    core.Digest(p),
			Metrics:   extractMetrics(p),
			ElapsedMs: time.Since(start).Milliseconds(),
		}
		report.Results[i] = res
		say("[%d/%d] %s: done in %.1fs  digest=%s", i+1, len(specs), spec.Label(),
			float64(res.ElapsedMs)/1000, res.Digest[:12])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return report, nil
}

// prefixWriter forwards writes line-by-line with a prefix, sharing the
// sweep's output mutex so concurrent pipelines' stage lines never
// interleave mid-line.
type prefixWriter struct {
	w      io.Writer
	mu     *sync.Mutex
	prefix string
	buf    []byte
}

func (pw *prefixWriter) Write(p []byte) (int, error) {
	pw.buf = append(pw.buf, p...)
	for {
		nl := -1
		for i, b := range pw.buf {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			return len(p), nil
		}
		line := pw.buf[:nl+1]
		pw.mu.Lock()
		io.WriteString(pw.w, pw.prefix)
		pw.w.Write(line)
		pw.mu.Unlock()
		pw.buf = pw.buf[nl+1:]
	}
}
