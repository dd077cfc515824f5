//go:build race

package geoserve_test

// Under the race detector sync.Pool drops a share of what it is handed,
// so allocation counts of the pooled handler paths wander.
func init() { raceEnabled = true }
