package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint is the environment a result was measured in. Two results
// are comparable only when their fingerprints agree (the git revision
// aside: comparing revisions is the point).
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	WorldScale float64 `json:"world_scale"`
	WorldSeed  int64   `json:"world_seed"`
}

func newFingerprint(scale float64) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		WorldScale: scale,
		WorldSeed:  worldSeed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitSHA is the revision the go command stamped into the binary; a
// checkout that is not a git repository has none.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}

// mismatch names the fields in which two fingerprints differ, the git
// revision aside; "" when the results are comparable.
func (a fingerprint) mismatch(b fingerprint) string {
	var diffs []string
	add := func(name string, differ bool) {
		if differ {
			diffs = append(diffs, name)
		}
	}
	add("cpu_model", a.CPUModel != b.CPUModel)
	add("num_cpu", a.NumCPU != b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS != b.GOMAXPROCS)
	add("go_version", a.GoVersion != b.GoVersion)
	add("world_scale", a.WorldScale != b.WorldScale)
	add("world_seed", a.WorldSeed != b.WorldSeed)
	return strings.Join(diffs, ", ")
}
