//go:build race

package main

// raceEnabled: the race detector slows the program enough that latency
// limits are missed and timings stop matching their scripts.
const raceEnabled = true
