//go:build linux && go1.24

//simlint:allow-file determinism host-side memory management for New and Release: the spare mapping is shared by the sweep workers that build and release machines, and only decides which block of zeroed host memory a machine gets; a never-released mapping's cleanup runs on the runtime's cleanup goroutine; neither touches simulated state or orders a simulated event

package machine

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// hugePageBytes is the transparent-huge-page size when the host lets a
// mapping ask for huge pages (THP mode "always" or "madvise"), and 0
// otherwise. Both files are read once, when the package loads.
var hugePageBytes = readHugePageBytes()

func readHugePageBytes() int64 {
	const thp = "/sys/kernel/mm/transparent_hugepage/"
	mode, err := os.ReadFile(thp + "enabled")
	if err != nil || !strings.Contains(string(mode), "[always]") && !strings.Contains(string(mode), "[madvise]") {
		return 0
	}
	size, err := os.ReadFile(thp + "hpage_pmd_size")
	if err != nil {
		return 0
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(size)), 10, 64)
	if err != nil || n <= 0 || n&(n-1) != 0 {
		return 0
	}
	return n
}

// mapping is the anonymous mapping a machine's words and line records
// come from.
type mapping struct {
	buf     []byte          // the whole mapping: a power of two of bytes, at least one huge page
	cleanup runtime.Cleanup // unmaps buf once the Machine is unreachable; Release stops it
}

// spare is the one mapping Release keeps for the next New, or nil. Every
// page of it reads zero. One spare is all a serial sweep needs, and a
// second would stay resident for nothing (see takeSpare).
var spare struct {
	sync.Mutex
	buf []byte
}

// mapMemory returns n zeroed words from a private anonymous mapping
// advised for huge pages, or nil when the block is smaller than one huge
// page, the host gives no huge pages, or the mapping fails. The kernel
// zero-fills each page on first touch, so words a run never touches are
// never cleared and never held by the Go heap. Without huge pages the
// 4 KiB faults cost about twice the clear they replace, and below one
// huge page a mapping per machine costs more than make; both cases fall
// back to make.
//
// The mapping is the spare a released machine left, when it is big
// enough, so the pages that machine touched need no fault this time. Its
// length is a power of two, so machines of nearly the same size share
// one; untouched virtual space costs nothing.
//
// Lifetime: the mapping lives until Release or until m is unreachable,
// so no slice of it may outlive either (see New).
func mapMemory(m *Machine, n int64) []uint64 {
	hp := hugePageBytes
	if hp == 0 || n*8 < hp {
		return nil
	}
	// A power of two at least one huge page long is whole huge pages,
	// which lets the kernel align the mapping to one, so every huge page
	// of it can be backed by one.
	size := int64(1) << bits.Len64(uint64(n*8-1))
	buf := takeSpare(size)
	if buf == nil {
		mem, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			return nil
		}
		if syscall.Madvise(mem, syscall.MADV_HUGEPAGE) != nil {
			unmap(mem)
			return nil
		}
		buf = mem
	}
	m.mem = &mapping{buf: buf}
	m.mem.cleanup = runtime.AddCleanup(m, unmap, buf)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), n)
}

// takeSpare returns the spare mapping when it holds size bytes. When it
// does not, it unmaps the spare, so a sweep never holds a mapping it
// cannot use beside the one it maps next.
func takeSpare(size int64) []byte {
	spare.Lock()
	buf := spare.buf
	spare.buf = nil
	spare.Unlock()
	if buf != nil && int64(len(buf)) < size {
		unmap(buf)
		return nil
	}
	return buf
}

// unmap unmaps a whole mapping. It has no caller to report to, and
// unmapping a whole live mapping fails only on a bug that double-unmaps
// it.
func unmap(buf []byte) { _ = syscall.Munmap(buf) }

// release ends a machine's mapping (see Machine.Release): its first n
// words are the machine's memWords words and then its line records, and
// heap is its bump pointer. It checks the allocator contract on the
// resident words past heap, then clears the resident words below heap and
// the resident records, and offers the mapping as the spare. Pages that
// were never touched are not resident, so they are neither read nor
// faulted in. A page the host swapped out is not resident either but
// still holds data, so every gap between resident runs is dropped with
// MADV_DONTNEED, after which it reads zero; on a page never touched that
// costs only the page-table walk.
func (p *mapping) release(n, memWords, heap int64) {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&p.buf[0])), n)
	runs := residentRuns(p.buf[:n*8])
	for _, r := range runs {
		checkUnallocated(words, max(r[0], heap), min(r[1], memWords))
	}
	p.cleanup.Stop()
	gap := int64(0)
	for _, r := range append(runs, [2]int64{n, n}) {
		if r[0] > gap {
			drop(p.buf[gap*8 : r[0]*8])
		}
		gap = r[1]
		if r[0] < heap {
			clear(words[r[0]:min(r[1], heap)])
		}
		if r[1] > memWords {
			clear(words[max(r[0], memWords):r[1]])
		}
	}
	spare.Lock()
	buf := p.buf
	if spare.buf == nil {
		spare.buf, buf = buf, nil
	}
	spare.Unlock()
	if buf != nil {
		unmap(buf)
	}
}

// drop discards the pages of b, a page-aligned part of a mapping, so
// they read zero again.
func drop(b []byte) {
	if err := syscall.Madvise(b, syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("machine: madvise: %v", err)) // b is part of a live mapping: only a bug fails it
	}
}

// residentRuns returns the word ranges [lo, hi) of b, a page-aligned
// prefix of a mapping, whose pages are resident.
func residentRuns(b []byte) [][2]int64 {
	ps := syscall.Getpagesize()
	vec := make([]byte, (len(b)+ps-1)/ps)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		panic(fmt.Sprintf("machine: mincore: %v", errno)) // b is part of a live mapping: only a bug fails it
	}
	var runs [][2]int64
	pw, n := int64(ps/8), int64(len(b)/8)
	for i := 0; i < len(vec); i++ {
		if vec[i]&1 == 0 {
			continue
		}
		lo := int64(i) * pw
		for i < len(vec) && vec[i]&1 != 0 {
			i++
		}
		runs = append(runs, [2]int64{lo, min(int64(i)*pw, n)})
	}
	return runs
}
