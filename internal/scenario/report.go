package scenario

import (
	"fmt"
	"strings"

	"geonet/internal/core"
)

// FormatTable renders the per-scenario results as an aligned text
// table: one row per spec, in spec order, with the headline metrics
// and a digest prefix long enough to eyeball-compare runs.
func (r *Report) FormatTable() string {
	t := core.Table{
		Caption: fmt.Sprintf("Sweep results (%d scenarios)", len(r.Results)),
		Header:  []string{"Scenario", "Nodes", "Links", "Locs", "MapAgree", "Slope", "Decay(mi)", "Digest"},
	}
	for _, res := range r.Results {
		t.Rows = append(t.Rows, []string{
			res.Label,
			fmt.Sprintf("%d", res.Metrics.Nodes),
			fmt.Sprintf("%d", res.Metrics.Links),
			fmt.Sprintf("%d", res.Metrics.Locations),
			fmt.Sprintf("%.3f", res.Metrics.MapperSameLoc),
			fmt.Sprintf("%.5f", res.Metrics.DistPrefSlope),
			fmt.Sprintf("%.0f", res.Metrics.DecayMiles),
			res.Digest[:12],
		})
	}
	return t.Render()
}

// axis is one sensitivity dimension: a name and how to read its value
// off a spec.
type axis struct {
	name  string
	value func(Spec) string
}

func axes() []axis {
	return []axis{
		{"seed", func(s Spec) string { return fmt.Sprintf("%d", s.Seed) }},
		{"scale", func(s Spec) string { return fmt.Sprintf("%g", s.Scale) }},
		{"monitors", func(s Spec) string { return defaultable(s.Monitors > 0, fmt.Sprintf("%d", s.Monitors)) }},
		{"as_count_factor", func(s Spec) string { return defaultable(s.ASCountFactor > 0, fmt.Sprintf("%g", s.ASCountFactor)) }},
		{"extra_links", func(s Spec) string {
			if s.ExtraLinks == nil {
				return "default"
			}
			return fmt.Sprintf("%g", *s.ExtraLinks)
		}},
		{"dist_indep_frac", func(s Spec) string {
			if s.DistIndepFrac == nil {
				return "default"
			}
			return fmt.Sprintf("%g", *s.DistIndepFrac)
		}},
		{"placement", func(s Spec) string {
			if s.UniformPlacement {
				return "uniform"
			}
			return "population"
		}},
	}
}

func defaultable(set bool, v string) string {
	if !set {
		return "default"
	}
	return v
}

// Sensitivity builds one table per axis that actually varies across
// the sweep: results grouped by axis value (in spec order), metric
// means per group. Reading down a table shows how Table-I agreement
// and the distance-preference exponent move along that axis.
func (r *Report) Sensitivity() []core.Table {
	var out []core.Table
	for _, ax := range axes() {
		groups := map[string][]Metrics{}
		var order []string
		for _, res := range r.Results {
			v := ax.value(res.Spec)
			if _, ok := groups[v]; !ok {
				order = append(order, v)
			}
			groups[v] = append(groups[v], res.Metrics)
		}
		if len(order) < 2 {
			continue // axis does not vary; nothing to compare
		}
		t := core.Table{
			Caption: fmt.Sprintf("Sensitivity along %s", ax.name),
			Header:  []string{ax.name, "Scenarios", "Nodes", "Links", "MapAgree", "Slope", "Decay(mi)"},
		}
		for _, v := range order {
			ms := groups[v]
			var nodes, links, agree, slope, decay float64
			for _, m := range ms {
				nodes += float64(m.Nodes)
				links += float64(m.Links)
				agree += m.MapperSameLoc
				slope += m.DistPrefSlope
				decay += m.DecayMiles
			}
			n := float64(len(ms))
			t.Rows = append(t.Rows, []string{
				v,
				fmt.Sprintf("%d", len(ms)),
				fmt.Sprintf("%.0f", nodes/n),
				fmt.Sprintf("%.0f", links/n),
				fmt.Sprintf("%.3f", agree/n),
				fmt.Sprintf("%.5f", slope/n),
				fmt.Sprintf("%.0f", decay/n),
			})
		}
		out = append(out, t)
	}
	return out
}

// FormatSensitivity renders every varying-axis table.
func (r *Report) FormatSensitivity() string {
	tables := r.Sensitivity()
	if len(tables) == 0 {
		return "no axis varies across the sweep\n"
	}
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Render())
	}
	return b.String()
}
