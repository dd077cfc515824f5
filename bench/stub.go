package main

import (
	"io"
	"net/http"
	"strconv"
)

// stub is a loopback server that answers every request with the same
// canned reply. The ladder uses it as the instrument's own floor: the
// same client, the same bytes on the wire, no service behind them.
type stub struct {
	reply       []byte
	contentType string
	epoch       uint64
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", s.contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(s.reply)))
	w.Header().Set("X-Geo-Epoch", strconv.FormatUint(s.epoch, 10))
	w.Write(s.reply)
}
