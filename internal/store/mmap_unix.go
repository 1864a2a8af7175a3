//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSupported gates the Open fast path; on other platforms Open
// silently falls back to reading the file into the heap.
const mmapSupported = true

// mmapFile maps the whole of f read-only and shared (PROT_READ,
// MAP_SHARED: the page cache backs the corpus, not the Go heap) and
// returns the mapping plus the matching unmap function. An empty file
// maps to empty heap bytes — mmap of length 0 is an error on Linux, and
// openV2's header check rejects it with a proper message either way.
func mmapFile(f *os.File) ([]byte, func([]byte) error, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, func([]byte) error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("store: file of %d bytes exceeds the address space", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap: %w", err)
	}
	return data, syscall.Munmap, nil
}

// madviseRandom tells the kernel the mapping will be accessed at random
// offsets (point lookups hop between sections), disabling readahead
// that would otherwise fault in pages the workload never touches.
func madviseRandom(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Madvise(b, syscall.MADV_RANDOM)
}

// madviseDontNeed evicts the mapping's resident pages; see
// Region.DropResident.
func madviseDontNeed(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Madvise(b, syscall.MADV_DONTNEED)
}
