package main

// The address mixes geoload drives: extracted from main so the draw
// logic is a plain testable function — mix_test.go pins the exact
// per-seed address sequences and the drawn distributions, so load
// reports are reproducible run to run and machine to machine (the rng
// package's generator is bit-exact everywhere).

import (
	"fmt"

	"geonet/internal/rng"
)

type mixKind int

const (
	mixUniform mixKind = iota
	mixZipf
	mixUnmappable
)

func parseMix(s string) (mixKind, error) {
	switch s {
	case "uniform":
		return mixUniform, nil
	case "zipf":
		return mixZipf, nil
	case "unmappable":
		return mixUnmappable, nil
	}
	return 0, fmt.Errorf("unknown mix %q (want uniform, zipf or unmappable)", s)
}

func (m mixKind) String() string {
	return [...]string{"uniform", "zipf", "unmappable"}[m]
}

// addrGen draws addresses for one worker, deterministically from its
// own stream:
//
//	uniform     addresses uniform over the allocated /24 index
//	zipf        /24s drawn rank-Zipf (hot-prefix skew), uniform host byte
//	unmappable  half uniform, half guaranteed-miss (class E) addresses
type addrGen struct {
	mix      mixKind
	prefixes []uint32
	s        *rng.Stream
	zipf     func() int
}

func newAddrGen(mix mixKind, prefixes []uint32, theta float64, s *rng.Stream) *addrGen {
	g := &addrGen{mix: mix, prefixes: prefixes, s: s}
	if mix == mixZipf {
		g.zipf = s.Zipf(theta, len(prefixes))
	}
	return g
}

func (g *addrGen) next() uint32 {
	switch g.mix {
	case mixZipf:
		return g.prefixes[g.zipf()-1] | uint32(g.s.Intn(256))
	case mixUnmappable:
		if g.s.Bool(0.5) {
			// Class E is never allocated by netgen: a guaranteed miss.
			return 0xF0000000 | uint32(g.s.Intn(1<<24))
		}
		fallthrough
	default:
		return g.prefixes[g.s.Intn(len(g.prefixes))] | uint32(g.s.Intn(256))
	}
}
