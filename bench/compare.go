package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how far b is worse than a, as a share of a, in the
// direction the metric counts as worse (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints b against a, metric by metric, and returns how many
// end-to-end metrics regressed: worse by more than the metric's bound
// and by more than the spread either run saw between its own slices.
// Results from different environments or run shapes are refused unless
// forced.
func compare(a, b *result, force bool, out io.Writer) (int, error) {
	why := a.Fingerprint.mismatch(b.Fingerprint)
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		why += fmt.Sprintf(" run shape (%s %ds trace=%v vs %s %ds trace=%v)",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	if why != "" {
		if !force {
			return 0, fmt.Errorf("results are not comparable: %s differ (use -force to compare anyway)", why)
		}
		fmt.Fprintf(out, "warning: comparing across %s\n", why)
	}
	if a.Digest != b.Digest {
		fmt.Fprintf(out, "warning: the runs ended on different snapshots (%.16s vs %.16s): different seeds, or the served answers changed\n", a.Digest, b.Digest)
	}
	fmt.Fprintf(out, "%s: %s (%s) -> %s (%s)\n", a.Workload, a.Fingerprint.GitSHA, verdict(a), b.Fingerprint.GitSHA, verdict(b))
	flagged := 0
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			va, okA := a.Metrics[d.Name]
			vb, okB := b.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			worse := worsening(d, va.Value, vb.Value)
			note := ""
			if d.Bound > 0 && worse > d.Bound && worse > max(va.Spread, vb.Spread) {
				note = fmt.Sprintf("  REGRESSION (bound %.1f%%, slice spread %.1f%%)", 100*d.Bound, 100*max(va.Spread, vb.Spread))
				flagged++
			}
			fmt.Fprintf(out, "%-48s %14.6g -> %14.6g %-6s %+7.2f%% worse%s\n", d.Name, va.Value, vb.Value, d.Unit, 100*worse, note)
		}
	}
	return flagged, nil
}

func verdict(r *result) string {
	if r.Correct {
		return "correct"
	}
	return fmt.Sprintf("%d of %d failed", r.Failed, r.Attempted)
}
