package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileHz is the CPU profile sampling rate of the profiled pass.
const profileHz = 1000

// Host-time modules. Each maps to one per-layer metric (see hostMetric);
// "unattributed" collects samples no rule claims.
const (
	modMachine      = "machine"
	modCoro         = "coro"
	modHTM          = "htm"
	modCore         = "core"
	modLocks        = "locks"
	modService      = "service"
	modShard        = "shard"
	modObs          = "obs"
	modWorkload     = "workload"
	modHarness      = "harness"
	modBench        = "bench"
	modAlloc        = "alloc"
	modGC           = "gc"
	modRuntime      = "runtime"
	modUnattributed = "unattributed"
)

// hostModules lists every module in report order.
var hostModules = []string{
	modMachine, modCoro, modHTM, modCore, modLocks, modService, modShard, modObs,
	modWorkload, modHarness, modBench, modAlloc, modGC, modRuntime, modUnattributed,
}

// hostMetric names the per-layer metric that carries a module's host time.
var hostMetric = map[string]string{
	modMachine:      "machine.host_s",
	modCoro:         "machine.coro_s",
	modHTM:          "htm.host_s",
	modCore:         "core.host_s",
	modLocks:        "locks.host_s",
	modService:      "service.host_s",
	modShard:        "shard.host_s",
	modObs:          "obs.host_s",
	modWorkload:     "workload.host_s",
	modHarness:      "harness.host_s",
	modBench:        "bench.host_s",
	modAlloc:        "runtime.alloc_s",
	modGC:           "runtime.gc_s",
	modRuntime:      "runtime.other_s",
	modUnattributed: "bench.unattributed_s",
}

// codePrefixes maps the simulator's packages (and this benchmark's) to
// modules by function-name prefix.
var codePrefixes = []struct{ prefix, module string }{
	{"hrwle/internal/machine.", modMachine},
	{"hrwle/internal/htm.", modHTM},
	{"hrwle/internal/core.", modCore},
	{"hrwle/internal/locks.", modLocks},
	{"hrwle/internal/rwlock.", modLocks},
	{"hrwle/internal/service.", modService},
	{"hrwle/internal/shard.", modShard},
	{"hrwle/internal/obs.", modObs},
	{"hrwle/internal/hashmap.", modWorkload},
	{"hrwle/internal/kyoto.", modWorkload},
	{"hrwle/internal/tpcc.", modWorkload},
	{"hrwle/internal/harness.", modHarness},
	{"hrwle/internal/stats.", modHarness},
	{"main.", modBench},
}

// runtimePrefixes are the function-name prefixes of the Go runtime and of
// the code it runs on behalf of a caller (atomics, iter.Pull's plumbing).
var runtimePrefixes = []string{"runtime.", "internal/runtime/", "runtime/internal/", "sync/atomic.", "iter."}

// Runtime frames that mark a sample as garbage collection, allocation or
// a coroutine switch, wherever they sit in the runtime part of the stack.
// runtime.GC is the collection a rep forces between points: its time is
// outside wall_s, but the profile cannot tell it from the collections the
// points trigger themselves, so runtime.gc_s carries both.
var (
	gcFrames = []string{
		"runtime.GC", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.newarray", "runtime.makemap",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	}
	coroFrames = []string{"runtime.coro", "iter.Pull"}
)

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func codeModule(fn string) string {
	for _, cp := range codePrefixes {
		if strings.HasPrefix(fn, cp.prefix) {
			return cp.module
		}
	}
	return ""
}

// classify attributes one sample, given its frames leaf first (inlined
// frames included). A sample whose leaf is simulator code belongs to that
// code's module. A sample in the runtime belongs to GC, allocation or the
// coroutine switch if the runtime part of its stack passes through one of
// those, and to the runtime otherwise. A sample in other standard-library
// code (sorting, hashing, encoding) belongs to the nearest simulator
// caller, since that caller asked for the work.
func classify(frames []string) string {
	i := 0
	for i < len(frames) && hasAnyPrefix(frames[i], runtimePrefixes) {
		i++
	}
	if i > 0 {
		rt := frames[:i]
		switch {
		case anyFrame(rt, gcFrames):
			return modGC
		case anyFrame(rt, allocFrames):
			return modAlloc
		case anyFrame(rt, coroFrames):
			return modCoro
		}
		return modRuntime
	}
	for _, fn := range frames {
		if m := codeModule(fn); m != "" {
			return m
		}
	}
	return modUnattributed
}

func anyFrame(frames []string, prefixes []string) bool {
	for _, fn := range frames {
		if hasAnyPrefix(fn, prefixes) {
			return true
		}
	}
	return false
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// module's share of the sampled CPU time.
func profileShares(data []byte) (map[string]float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	byMod := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.funcName[fid])
			}
		}
		byMod[classify(frames)] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	for _, m := range hostModules {
		if total > 0 {
			shares[m] = byMod[m] / total
		} else {
			shares[m] = 0
		}
	}
	shares["samples"] = total
	return shares, nil
}

// The subset of the pprof profile.proto message this benchmark reads.
type profSample struct {
	locs   []uint64 // leaf first
	weight float64  // samples
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location → function ids, innermost inlined first
	funcName map[uint64]string
}

func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			// Repeated fields arrive packed or as one field per element,
			// so the value index runs across calls.
			var s profSample
			nval := 0
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) {
						if nval == 0 {
							s.weight = float64(x)
						}
						nval++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNameIdx {
		if si >= uint64(len(strs)) {
			return nil, errors.New("function name index out of range")
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message. For varint fields fn
// gets the value in v; for length-delimited fields, the bytes in b.
func pbFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated yields the elements of a repeated varint field, packed (b
// holds them) or not (v is the one element).
func pbRepeated(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
