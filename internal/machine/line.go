package machine

// Per-line records. Every cache line of simulated memory has one record in
// Machine.lines, a flat []uint64 with no Go pointers in it, so the garbage
// collector never scans it and a cold simulated access touches one record
// for both the coherence model and the HTM conflict directory. A record is
// 2 + 2w words, w = ceil(CPUs/64):
//
//	word 0        exclUntil: the time until which an exclusive transfer
//	              reserves the line
//	word 1        low 32 bits: coherence owner + 1 (0 = none);
//	              high 32 bits: speculative writer + 1 (0 = none)
//	words 2..2+w  sharer bitmap: CPUs that have read the line since the
//	              last write
//	words 2+w..   speculative-reader bitmap
//
// The zero record is an idle line, so New needs no initialisation pass.
// The machine stores the HTM slot (the writer and the reader bitmap) and
// never reads it; internal/htm reaches it by line index (see LineOf)
// through SpecWriter, SetSpecWriter and SpecReaders.
const (
	recExcl  = 0
	recOwner = 1
	recBits  = 2

	ownerMask = 1<<32 - 1
)

// CPUSet is a bitmap of CPU IDs, one bit per CPU, as wide as the
// machine's record bitmaps. It aliases the record it came from.
type CPUSet []uint64

// Has reports whether CPU id is in the set.
func (s CPUSet) Has(id int) bool { return s[id>>6]&(1<<(uint(id)&63)) != 0 }

// Add puts CPU id in the set.
func (s CPUSet) Add(id int) { s[id>>6] |= 1 << (uint(id) & 63) }

// Del takes CPU id out of the set.
func (s CPUSet) Del(id int) { s[id>>6] &^= 1 << (uint(id) & 63) }

// AnyExcept reports whether the set holds a CPU other than id.
func (s CPUSet) AnyExcept(id int) bool {
	for i, w := range s {
		if i == id>>6 {
			w &^= 1 << (uint(id) & 63)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// setOnly makes CPU id the set's only member.
func (s CPUSet) setOnly(id int) {
	for i := range s {
		var w uint64
		if i == id>>6 {
			w = 1 << (uint(id) & 63)
		}
		s[i] = w
	}
}

// only reports whether CPU id is the set's only member.
func (s CPUSet) only(id int) bool {
	for i, w := range s {
		if i == id>>6 {
			w ^= 1 << (uint(id) & 63)
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// lineRec returns the record of line i.
func (m *Machine) lineRec(i int64) []uint64 {
	b := i * m.recWords
	return m.lines[b : b+m.recWords]
}

// sharers returns the sharer bitmap of record r.
func (m *Machine) sharers(r []uint64) CPUSet { return CPUSet(r[recBits : recBits+m.bitWords]) }

// SpecWriter returns line i's speculative writer, or -1 when it has none.
func (m *Machine) SpecWriter(i int64) int {
	return int(m.lines[i*m.recWords+recOwner]>>32) - 1
}

// SetSpecWriter records CPU id as line i's speculative writer; -1 clears
// it.
func (m *Machine) SetSpecWriter(i int64, id int) {
	w := &m.lines[i*m.recWords+recOwner]
	*w = *w&ownerMask | uint64(id+1)<<32
}

// SpecReaders returns line i's speculative-reader bitmap.
func (m *Machine) SpecReaders(i int64) CPUSet {
	b := i*m.recWords + recBits + m.bitWords
	return CPUSet(m.lines[b : b+m.bitWords])
}
