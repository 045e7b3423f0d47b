// Package stmbench7 is a port of STMBench7 (Guerraoui, Kapalka, Vitek —
// EuroSys'07), the CAD-application benchmark the paper uses for Fig. 8,
// adapted exactly as the paper describes: the object graph lives behind a
// single read-write lock; read-only operations acquire it in read mode and
// update operations in write mode. Long traversals and structural
// modifications are disabled (the paper's configuration), leaving a
// 24-operation default mix over a medium-size database.
//
// The object graph follows the STMBench7 schema: a module whose design
// root is a tree of complex assemblies; the leaves are base assemblies
// referencing shared composite parts; each composite part owns a document
// and a connected graph of atomic parts; an id index (a hashmap in
// simulated memory) provides direct part access; a manual hangs off the
// module. All objects are cache-line-aligned records in simulated memory,
// so operation footprints translate directly into HTM capacity pressure —
// the paper's explanation for why HLE collapses on this benchmark.
package stmbench7

import (
	"hrwle/internal/hashmap"
	"hrwle/internal/machine"
)

// Word-offset layouts of the simulated-memory records. Each record is
// allocated line-aligned (16 words), like the C++ objects' malloc blocks.
const (
	// AtomicPart: the unit of the per-composite part graph.
	apID        = 0
	apX         = 1
	apY         = 2
	apBuildDate = 3
	apPartOf    = 4 // owning composite part
	apNConn     = 5
	apConnBase  = 6 // 3 connections: (destination, length) pairs
	apConnStep  = 2

	// CompositePart.
	cpID        = 0
	cpBuildDate = 1
	cpRootPart  = 2
	cpDocument  = 3
	cpNParts    = 4
	cpPartsArr  = 5 // address of a word array of atomic-part addresses

	// Document.
	docID      = 0
	docTitle   = 1 // interned title handle
	docPart    = 2
	docTextLen = 3
	docTextArr = 4

	// BaseAssembly.
	baID        = 0
	baBuildDate = 1
	baSuper     = 2
	baNComp     = 3
	baCompBase  = 4 // 3 composite-part addresses

	// ComplexAssembly.
	caID        = 0
	caBuildDate = 1
	caSuper     = 2
	caLevel     = 3
	caNSub      = 4
	caSubBase   = 5 // 3 sub-assembly addresses

	// Module.
	modID         = 0
	modDesignRoot = 1
	modManual     = 2

	// Manual.
	manID      = 0
	manTextLen = 1
	manTextArr = 2
)

// Config sizes the database. Defaults approximate STMBench7's "medium"
// database scaled to container memory (see DESIGN.md).
type Config struct {
	// AssmLevels is the depth of the assembly tree (root complex assembly
	// at level AssmLevels, base assemblies at level 1).
	AssmLevels int
	// AssmFanout is the number of sub-assemblies per complex assembly and
	// composites per base assembly.
	AssmFanout int
	// Composites is the size of the shared composite-part pool.
	Composites int
	// PartsPerComposite is the atomic-part graph size per composite.
	PartsPerComposite int
	// ConnsPerPart is the out-degree of each atomic part.
	ConnsPerPart int
	// DocWords is the document text length in words.
	DocWords int
	// ManualWords is the manual text length in words.
	ManualWords int
	// Seed drives the deterministic construction.
	Seed uint64
}

// DefaultConfig returns the medium-size database used by Fig. 8.
func DefaultConfig() Config {
	return Config{
		AssmLevels:        5,
		AssmFanout:        3,
		Composites:        500,
		PartsPerComposite: 20,
		ConnsPerPart:      3,
		DocWords:          100,
		ManualWords:       8192,
		Seed:              7,
	}
}

// MemWords estimates the simulated-memory footprint of a database built
// with this configuration (with headroom for lock metadata).
func (c Config) MemWords() int64 {
	bases := int64(pow(c.AssmFanout, c.AssmLevels-1))
	complexes := int64(0)
	for l := 0; l < c.AssmLevels-1; l++ {
		complexes += int64(pow(c.AssmFanout, l))
	}
	parts := int64(c.Composites) * int64(c.PartsPerComposite)
	words := parts*16 + // atomic parts
		int64(c.Composites)*(16+int64(c.PartsPerComposite)+16) + // composites + arrays
		int64(c.Composites)*(16+int64(c.DocWords)) + // documents
		bases*16 + complexes*16 +
		int64(c.ManualWords) + 16 +
		parts*16*2 + // id index (hashmap buckets + nodes)
		1<<14
	return words * 2
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Bench is a built STMBench7 database plus the (immutable) entry-point
// tables the operations draw from.
type Bench struct {
	Cfg    Config
	M      *machine.Machine
	Module machine.Addr

	// Entry points (immutable after build; equivalent to the benchmark's
	// internal indexes of assembly/composite ids).
	BaseAssemblies []machine.Addr
	CompositeParts []machine.Addr
	AtomicParts    []machine.Addr // by id: AtomicParts[id]

	// Index maps atomic-part id → record address inside simulated memory
	// (used by the query operations, so index traversal costs are paid
	// inside critical sections as in the original benchmark). It reuses
	// the chained hashmap substrate.
	Index *hashmap.Map
}
