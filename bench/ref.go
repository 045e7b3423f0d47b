package main

import (
	"iter"
	"time"
)

// refNominalS is the reference kernel's median slice time on the host the
// seed baseline (bench/runs/seed1-a.json) was recorded on. Adjusted
// seconds are raw seconds × refNominalS / ref_s, where ref_s is the median
// slice time measured during the same rep: a rep that ran while the host
// was slow also timed slow slices, and the ratio cancels most of the
// slowdown. It is a fixed constant so that adjusted numbers stay
// comparable across runs and commits; changing it rescales every recorded
// baseline.
const refNominalS = 0.00106

// Shape of the reference kernel.
const (
	refCoros      = 8       // coroutines resumed round-robin
	refTableWords = 1 << 14 // shared table, 128 KiB
	refBurst      = 16      // table updates per resume
	refResumes    = 4000    // resumes per slice
	// refSlicesPerPause is how many slices run at each pause between
	// points, so that even a two-point rep times enough slices for a
	// median.
	refSlicesPerPause = 3
)

var refSink uint64

// refKernel is the host-speed reference: a fixed amount of pure-Go work
// shaped like the simulator's engine — switches between iter.Pull
// coroutines, each doing a burst of branchy updates to a shared table —
// that depends only on the Go runtime and standard library, so no change
// to the simulator can move it. It is timed in short slices between the
// points of a rep, so it samples the host's speed across the whole rep:
// on a shared 2-vCPU host, slices taken that way tracked fig5-hotline's
// wall time with correlation 0.9, one timing taken before the rep with
// 0.2–0.6 (see README.md). The timed part of a slice allocates nothing.
type refKernel struct {
	next  [refCoros]func() (uint64, bool)
	stop  [refCoros]func()
	table [refTableWords]uint64
	times []float64
}

func newRefKernel() *refKernel {
	k := &refKernel{times: make([]float64, 0, 128)}
	for c := range k.next {
		x := uint64(c)*0x9e3779b97f4a7c15 + 1
		k.next[c], k.stop[c] = iter.Pull(func(yield func(uint64) bool) {
			for {
				for i := 0; i < refBurst; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					j := x & (refTableWords - 1)
					if k.table[j]&1 == 0 {
						k.table[j] += x
					} else {
						k.table[j] ^= x >> 3
					}
				}
				if !yield(x) {
					return
				}
			}
		})
	}
	k.slice() // start the coroutines and fault the table in
	k.times = k.times[:0]
	return k
}

// slice runs one slice of the kernel and records its time.
func (k *refKernel) slice() {
	start := time.Now()
	var s uint64
	for i := 0; i < refResumes; i++ {
		v, _ := k.next[i%refCoros]()
		s += v
	}
	k.times = append(k.times, time.Since(start).Seconds())
	refSink += s
}

// seconds returns the median slice time: a slice the host interrupted
// (a preempted vCPU, a page-fault storm) runs several times too long, and
// the median ignores it.
func (k *refKernel) seconds() float64 { return median(k.times) }

func (k *refKernel) close() {
	for _, stop := range k.stop {
		stop()
	}
}
