package stmbench7

import (
	"hrwle/internal/hashmap"
	"hrwle/internal/machine"
)

// Build constructs the database with raw stores (setup time, no virtual
// cycles) and returns the benchmark handle.
func Build(m *machine.Machine, cfg Config) *Bench {
	b := &Bench{Cfg: cfg, M: m}
	rng := machine.NewStream(cfg.Seed*2654435761 + 1)

	// Atomic parts and their per-composite graphs, composites, documents.
	totalParts := cfg.Composites * cfg.PartsPerComposite
	b.AtomicParts = make([]machine.Addr, 0, totalParts)
	b.CompositeParts = make([]machine.Addr, 0, cfg.Composites)
	// Index sized so chains stay short: part lookups are meant to be
	// cheap; the capacity pressure comes from the object graph itself.
	b.Index = hashmap.New(m, int64(totalParts/4+1))

	nextID := uint64(1)
	for c := 0; c < cfg.Composites; c++ {
		comp := m.AllocRawAligned(16)
		parts := make([]machine.Addr, cfg.PartsPerComposite)
		for i := range parts {
			p := m.AllocRawAligned(16)
			id := nextID
			nextID++
			m.Poke(p+apID, id)
			m.Poke(p+apX, uint64(rng.Intn(1000)))
			m.Poke(p+apY, uint64(rng.Intn(1000)))
			m.Poke(p+apBuildDate, uint64(1000+rng.Intn(1000)))
			m.Poke(p+apPartOf, uint64(comp))
			parts[i] = p
			b.AtomicParts = append(b.AtomicParts, p)
			// Index entry (direct construction, like Populate).
			idxNode := m.AllocRawAligned(3)
			m.Poke(idxNode+0, id)
			m.Poke(idxNode+1, uint64(p))
			b.indexBucketLink(idxNode, id)
		}
		// Ring + random chords connection graph: guarantees connectivity
		// from the root part, as STMBench7's builder does.
		for i, p := range parts {
			m.Poke(p+apNConn, uint64(cfg.ConnsPerPart))
			for k := 0; k < cfg.ConnsPerPart; k++ {
				var dest machine.Addr
				if k == 0 {
					dest = parts[(i+1)%len(parts)]
				} else {
					dest = parts[rng.Intn(len(parts))]
				}
				base := p + apConnBase + machine.Addr(k*apConnStep)
				m.Poke(base, uint64(dest))
				m.Poke(base+1, uint64(1+rng.Intn(100)))
			}
		}
		// Document.
		doc := m.AllocRawAligned(16)
		text := m.AllocRawAligned(int64(cfg.DocWords))
		for w := 0; w < cfg.DocWords; w++ {
			m.Poke(text+machine.Addr(w), rng.Next()%65536)
		}
		m.Poke(doc+docID, uint64(c+1))
		m.Poke(doc+docTitle, uint64(c)*2654435761)
		m.Poke(doc+docPart, uint64(comp))
		m.Poke(doc+docTextLen, uint64(cfg.DocWords))
		m.Poke(doc+docTextArr, uint64(text))

		partsArr := m.AllocRawAligned(int64(len(parts)))
		for i, p := range parts {
			m.Poke(partsArr+machine.Addr(i), uint64(p))
		}
		m.Poke(comp+cpID, uint64(c+1))
		m.Poke(comp+cpBuildDate, uint64(1000+rng.Intn(1000)))
		m.Poke(comp+cpRootPart, uint64(parts[0]))
		m.Poke(comp+cpDocument, uint64(doc))
		m.Poke(comp+cpNParts, uint64(len(parts)))
		m.Poke(comp+cpPartsArr, uint64(partsArr))
		b.CompositeParts = append(b.CompositeParts, comp)
	}

	// Assembly tree: complex assemblies down to base assemblies.
	root := b.buildAssembly(m, rng, cfg.AssmLevels, 0)

	// Module and manual.
	manual := m.AllocRawAligned(16)
	mtext := m.AllocRawAligned(int64(cfg.ManualWords))
	for w := 0; w < cfg.ManualWords; w++ {
		m.Poke(mtext+machine.Addr(w), rng.Next()%256)
	}
	m.Poke(manual+manID, 1)
	m.Poke(manual+manTextLen, uint64(cfg.ManualWords))
	m.Poke(manual+manTextArr, uint64(mtext))

	mod := m.AllocRawAligned(16)
	m.Poke(mod+modID, 1)
	m.Poke(mod+modDesignRoot, uint64(root))
	m.Poke(mod+modManual, uint64(manual))
	b.Module = mod
	return b
}

// indexBucketLink inserts a prebuilt index node at the head of its chain
// with raw stores (build-time only).
func (b *Bench) indexBucketLink(node machine.Addr, id uint64) {
	m := b.M
	bucketHead := b.Index.RawBucket(id)
	m.Poke(node+2, m.Peek(bucketHead)) // next
	m.Poke(bucketHead, uint64(node))
}

// buildAssembly recursively constructs the assembly tree. Level 1 builds a
// base assembly that references AssmFanout random composite parts
// (composites are shared between base assemblies, as in STMBench7).
func (b *Bench) buildAssembly(m *machine.Machine, rng *machine.Stream, level int, super machine.Addr) machine.Addr {
	cfg := b.Cfg
	if level == 1 {
		ba := m.AllocRawAligned(16)
		m.Poke(ba+baID, uint64(len(b.BaseAssemblies)+1))
		m.Poke(ba+baBuildDate, uint64(1000+rng.Intn(1000)))
		m.Poke(ba+baSuper, uint64(super))
		m.Poke(ba+baNComp, uint64(cfg.AssmFanout))
		for k := 0; k < cfg.AssmFanout; k++ {
			comp := b.CompositeParts[rng.Intn(len(b.CompositeParts))]
			m.Poke(ba+baCompBase+machine.Addr(k), uint64(comp))
		}
		b.BaseAssemblies = append(b.BaseAssemblies, ba)
		return ba
	}
	ca := m.AllocRawAligned(16)
	m.Poke(ca+caID, uint64(level)<<32|rng.Next()%1000000)
	m.Poke(ca+caBuildDate, uint64(1000+rng.Intn(1000)))
	m.Poke(ca+caSuper, uint64(super))
	m.Poke(ca+caLevel, uint64(level))
	m.Poke(ca+caNSub, uint64(cfg.AssmFanout))
	for k := 0; k < cfg.AssmFanout; k++ {
		sub := b.buildAssembly(m, rng, level-1, ca)
		m.Poke(ca+caSubBase+machine.Addr(k), uint64(sub))
	}
	return ca
}
