package main

import (
	"encoding/binary"
	"fmt"

	"geonet/internal/geoserve"
	"geonet/internal/rng"
)

const (
	// uniformDraws and zipfDraws are the addresses generated per client
	// before the run; a client walks its pool cyclically, so no random
	// number is drawn while the clock runs.
	uniformDraws = 1 << 22
	zipfDraws    = 1 << 20
	zipfTheta    = 1.2
)

// poolStream is client i's own address stream under the workload seed.
func poolStream(seed int64, client int) *rng.Stream {
	return rng.New(seed).SplitN("pool", client)
}

// uniformPool draws n addresses uniform over the allocated /24s with a
// random host byte.
func uniformPool(s *rng.Stream, prefixes []uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = prefixes[s.Intn(len(prefixes))] | uint32(s.Intn(256))
	}
	return out
}

// zipfPool draws n addresses whose /24 is rank-Zipf over the index
// (rank 1 = first prefix) with a random host byte.
func zipfPool(s *rng.Stream, prefixes []uint32, theta float64, n int) []uint32 {
	zipf := s.Zipf(theta, len(prefixes))
	out := make([]uint32, n)
	for i := range out {
		out[i] = prefixes[zipf()-1] | uint32(s.Intn(256))
	}
	return out
}

// binFrames is a pool laid out as ready-to-send POST /v1/locate/bin
// requests of batch addresses each, HTTP head included; request i uses
// wire mapper id i%mappers.
type binFrames struct {
	buf     []byte
	stride  int // bytes per request
	addrOff int // offset of the first address inside a request
	batch   int
	n       int
	mappers int
}

func newBinFrames(pool []uint32, batch, mappers int) *binFrames {
	bodyLen := 8 + 4 + 4*batch
	head := fmt.Sprintf("POST /v1/locate/bin HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		geoserve.WireContentType, bodyLen)
	f := &binFrames{
		stride:  len(head) + bodyLen,
		addrOff: len(head) + 12,
		batch:   batch,
		n:       len(pool) / batch,
		mappers: mappers,
	}
	f.buf = make([]byte, 0, f.n*f.stride)
	for i := 0; i < f.n; i++ {
		f.buf = append(f.buf, head...)
		f.buf = geoserve.AppendWireBatchRequest(f.buf, uint16(i%mappers), pool[i*batch:(i+1)*batch])
	}
	return f
}

// request returns the bytes of request i (cyclic) and its mapper id.
func (f *binFrames) request(i int) (req []byte, mapper int) {
	i %= f.n
	return f.buf[i*f.stride : (i+1)*f.stride], i % f.mappers
}

// addr reads address j of a request back out of its bytes.
func (f *binFrames) addr(req []byte, j int) uint32 {
	return binary.LittleEndian.Uint32(req[f.addrOff+4*j:])
}
