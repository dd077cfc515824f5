//go:build linux

package snapfile

import (
	"os"
	"syscall"
)

// readSnapFile maps the file read-only instead of copying it onto the
// heap: Decode never retains the input bytes (it parses every section
// into fresh slices and copies the op records once, for Derive to keep),
// so the mapping is released as soon as decoding finishes and the page
// cache backs the one pass over the file. Anything mmap can't serve (empty file, weird filesystem) falls
// back to an ordinary read.
func readSnapFile(path string) (data []byte, done func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size <= 0 || int64(int(size)) != size {
		return readSnapFileHeap(path)
	}
	mapped, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return readSnapFileHeap(path)
	}
	return mapped, func() { syscall.Munmap(mapped) }, nil
}
