//go:build race

package replica

// Under the race detector sync.Pool drops a share of what it is handed,
// so allocation counts of the pooled forward path wander.
func init() { raceEnabled = true }
