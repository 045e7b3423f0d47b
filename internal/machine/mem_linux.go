//go:build linux && go1.24

//simlint:allow-file determinism host-side memory management for New: the mapped-bytes count is shared by the sweep workers that build machines and only decides when to force a collection, and the mapping's cleanup runs on the runtime's cleanup goroutine; neither touches simulated state or orders a simulated event

package machine

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
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

// mapGCBytes is how many bytes of mappings New may make between forced
// collections. The Go heap does not see a mapping, so dropped machines no
// longer push the collector to run, and a sweep of large machines would
// keep every dropped machine's touched pages resident until some
// unrelated collection found it unreachable.
const mapGCBytes = 1 << 30

// mappedSinceGC counts the bytes mapped since the last forced collection.
var mappedSinceGC atomic.Int64

// mapMemory returns n zeroed words from a private anonymous mapping
// advised for huge pages, unmapped by a cleanup once m is unreachable, or
// nil when the block is smaller than one huge page, the host gives no
// huge pages, or the mapping fails. The kernel zero-fills each page on
// first touch, so words a run never touches are never cleared and never
// held by the Go heap. Without huge pages the 4 KiB faults cost about
// twice the clear they replace, and below one huge page a mapping per
// machine costs more than make; both cases fall back to make.
//
// Lifetime: the mapping lives until m is unreachable, so no slice of it
// may outlive m (see New).
func mapMemory(m *Machine, n int64) []uint64 {
	hp := hugePageBytes
	if hp == 0 || n*8 < hp {
		return nil
	}
	// A length of whole huge pages lets the kernel align the mapping to
	// one, so every huge page of it can be backed by one.
	size := (n*8 + hp - 1) &^ (hp - 1)
	if mappedSinceGC.Add(size) > mapGCBytes {
		mappedSinceGC.Store(0)
		runtime.GC() // queues the cleanups of unreachable machines
	}
	mem, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	if syscall.Madvise(mem, syscall.MADV_HUGEPAGE) != nil {
		_ = syscall.Munmap(mem) // the whole of a mapping Mmap just made: nothing can fail
		return nil
	}
	// The cleanup has no caller to report to, and unmapping a whole live
	// mapping fails only on a bug that double-unmaps it.
	runtime.AddCleanup(m, func(mem []byte) { _ = syscall.Munmap(mem) }, mem)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
}
