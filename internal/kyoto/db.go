// Package kyoto is a port of Kyoto Cabinet's in-memory CacheDB as the
// paper uses it for Fig. 9: the database is split into slots, each slot
// holds hash buckets, and each bucket is a binary search tree of records.
// A single global read-write lock protects the method surface; slot-local
// mutation is additionally guarded by nested per-slot mutexes.
//
// Locking, per the paper:
//
//   - record operations (get/set/remove) acquire the OUTER lock in READ
//     mode plus the slot's INNER mutex — so "readers" of the outer lock do
//     mutate slot-local state, exactly as in Kyoto Cabinet;
//   - database-wide operations (iteration, recount, bucket clearing)
//     acquire the outer lock in WRITE mode and need no inner locks;
//   - RW-LE elides only the outer lock ("this is only possible because
//     RW-LE is aware of the read-write lock semantics") and keeps the
//     inner mutexes real; HLE elides both, turning inner acquisitions into
//     transactional subscriptions.
package kyoto

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Record node layout (line-aligned). Records live both in their bucket's
// BST and in the slot's LRU list (CacheDB moves a record to the front of
// the LRU on every access — get() is a mutating operation).
const (
	recKey   = 0
	recValue = 1
	recLeft  = 2
	recRight = 3
	recPrev  = 4 // LRU list
	recNext  = 5 // LRU list
	recWords = 6
)

// Per-slot header layout (line-aligned): mutex, record count and LRU head
// share the line, as in the C++ object — the LRU head is the hot word that
// makes same-slot get() transactions conflict under HLE.
const (
	slotMutex = 0
	slotCount = 1
	slotLRU   = 2 // most-recently-used record
	slotLRUTl = 3 // least-recently-used record (eviction victim)
)

// InnerPolicy selects how critical sections treat the per-slot mutexes.
type InnerPolicy int

const (
	// InnerReal acquires slot mutexes with real CAS spin locks (RW-LE,
	// the original locking, BRLock, SGL).
	InnerReal InnerPolicy = iota
	// InnerElide only subscribes the mutex word inside the enclosing
	// hardware transaction (HLE elides both lock levels).
	InnerElide
)

// InnerFor returns the slot-mutex policy of the named lock scheme: HLE
// elides the inner mutexes along with the outer lock; every other scheme
// elides or implements only the outer lock and keeps them real.
func InnerFor(scheme string) InnerPolicy {
	if scheme == "HLE" {
		return InnerElide
	}
	return InnerReal
}

// Config sizes the database.
type Config struct {
	Slots          int64 // Kyoto Cabinet's SLOTNUM is 16
	BucketsPerSlot int64
	Records        int64 // initial population
	KeySpace       int64 // key universe (steady-state size ≈ Records)
	// CapPerSlot, when non-zero, bounds each slot's record count: a Set
	// that would exceed it first evicts the slot's least-recently-used
	// record (CacheDB's capcnt behaviour — the reason the LRU list
	// exists).
	CapPerSlot int64
	Seed       uint64
}

// DefaultConfig matches the wicked-benchmark shape scaled to the
// container (see DESIGN.md).
func DefaultConfig() Config {
	return Config{Slots: 16, BucketsPerSlot: 128, Records: 8192, KeySpace: 16384, Seed: 11}
}

// MemWords estimates the simulated-memory footprint with churn headroom.
func (c Config) MemWords() int64 {
	return c.KeySpace*16*2 + c.Slots*(16+c.BucketsPerSlot) + 1<<14
}

// DB is a CacheDB instance in simulated memory.
type DB struct {
	M       *machine.Machine
	Cfg     Config
	slots   machine.Addr // per-slot headers, one line each
	buckets machine.Addr // slots×bucketsPerSlot BST roots
	lineW   machine.Addr
}

// New allocates the slot headers and bucket arrays.
func New(m *machine.Machine, cfg Config) *DB {
	db := &DB{M: m, Cfg: cfg, lineW: machine.Addr(m.Cfg.LineWords)}
	db.slots = m.AllocRawAligned(cfg.Slots * m.Cfg.LineWords)
	db.buckets = m.AllocRawAligned(cfg.Slots * cfg.BucketsPerSlot)
	return db
}

// hash spreads keys across slots and buckets (Kyoto hashes the key bytes;
// a multiplicative hash is equivalent for our integer keys).
func hash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

func (db *DB) slotOf(key uint64) int64 {
	return int64(hash(key) >> 32 % uint64(db.Cfg.Slots))
}

func (db *DB) slotAddr(s int64) machine.Addr { return db.slots + machine.Addr(s)*db.lineW }

func (db *DB) bucketAddr(key uint64) machine.Addr {
	s := db.slotOf(key)
	b := int64(hash(key) % uint64(db.Cfg.BucketsPerSlot))
	return db.buckets + machine.Addr(s*db.Cfg.BucketsPerSlot+b)
}

// Populate inserts the initial records with raw stores (setup time).
// Every even key in [0, 2*Records) is present initially, so half the
// KeySpace hits.
func (db *DB) Populate() {
	for i := int64(0); i < db.Cfg.Records; i++ {
		key := uint64(2 * i)
		node := db.M.AllocRawAligned(recWords)
		db.M.Poke(node+recKey, key)
		db.M.Poke(node+recValue, key*3)
		db.rawInsert(node)
		sa := db.slotAddr(db.slotOf(key))
		db.M.Poke(sa+slotCount, db.M.Peek(sa+slotCount)+1)
		// Link at the front of the slot's LRU list.
		head := db.M.Peek(sa + slotLRU)
		db.M.Poke(node+recNext, head)
		if head != 0 {
			db.M.Poke(machine.Addr(head)+recPrev, uint64(node))
		} else {
			db.M.Poke(sa+slotLRUTl, uint64(node))
		}
		db.M.Poke(sa+slotLRU, uint64(node))
	}
}

// rawInsert links a node into its bucket BST with raw stores (build time).
func (db *DB) rawInsert(node machine.Addr) {
	m := db.M
	key := m.Peek(node + recKey)
	cur := db.bucketAddr(key) // address of the link word to follow
	for {
		child := m.Peek(cur)
		if child == 0 {
			m.Poke(cur, uint64(node))
			return
		}
		c := machine.Addr(child)
		if key < m.Peek(c+recKey) {
			cur = c + recLeft
		} else {
			cur = c + recRight
		}
	}
}

// lockSlot acquires (or subscribes) the inner mutex of slot s.
func (db *DB) lockSlot(t *htm.Thread, s int64, pol InnerPolicy) {
	mu := db.slotAddr(s) + slotMutex
	if pol == InnerElide {
		// Inside the enclosing transaction: subscribe only. The lock can
		// only be held by a non-speculative owner, whose acquisition will
		// abort us through the subscription.
		if t.Load(mu) != 0 {
			t.Abort(stats.AbortLockBusy)
		}
		return
	}
	t.AwaitAcquire(mu, htm.Poll(64))
}

// unlockSlot releases the inner mutex (no-op when elided).
func (db *DB) unlockSlot(t *htm.Thread, s int64, pol InnerPolicy) {
	if pol == InnerElide {
		return
	}
	t.Store(db.slotAddr(s)+slotMutex, 0)
}

// Count sums the per-slot record counts (outer read, no inner locks —
// Kyoto's count() is approximate in exactly this way).
func (db *DB) Count(t *htm.Thread) uint64 {
	var n uint64
	for s := int64(0); s < db.Cfg.Slots; s++ {
		n += t.Load(db.slotAddr(s) + slotCount)
	}
	return n
}

// RawCount walks every tree raw and returns the true record count (tests).
func (db *DB) RawCount() int64 {
	var n int64
	for i := int64(0); i < db.Cfg.Slots*db.Cfg.BucketsPerSlot; i++ {
		n += db.rawTreeCount(machine.Addr(db.M.Peek(db.buckets + machine.Addr(i))))
	}
	return n
}

func (db *DB) rawTreeCount(node machine.Addr) int64 {
	if node == 0 {
		return 0
	}
	return 1 + db.rawTreeCount(machine.Addr(db.M.Peek(node+recLeft))) +
		db.rawTreeCount(machine.Addr(db.M.Peek(node+recRight)))
}

// CheckTrees verifies BST ordering and key placement in every bucket.
// Returns "" when sound.
func (db *DB) CheckTrees() string {
	for i := int64(0); i < db.Cfg.Slots*db.Cfg.BucketsPerSlot; i++ {
		root := machine.Addr(db.M.Peek(db.buckets + machine.Addr(i)))
		if msg := db.checkTree(root, 0, ^uint64(0), i); msg != "" {
			return msg
		}
	}
	// Per-slot counts must match the trees, and each slot's LRU list must
	// contain exactly the slot's records.
	for s := int64(0); s < db.Cfg.Slots; s++ {
		var n int64
		for b := int64(0); b < db.Cfg.BucketsPerSlot; b++ {
			n += db.rawTreeCount(machine.Addr(db.M.Peek(db.buckets + machine.Addr(s*db.Cfg.BucketsPerSlot+b))))
		}
		if got := db.M.Peek(db.slotAddr(s) + slotCount); int64(got) != n {
			return "slot count out of sync with trees"
		}
		if msg := db.checkLRU(s, n); msg != "" {
			return msg
		}
	}
	return ""
}

// checkLRU validates the doubly-linked LRU list of slot s: length, link
// reciprocity, slot membership of every record, and the tail pointer.
func (db *DB) checkLRU(s, want int64) string {
	m := db.M
	var prev machine.Addr
	n := machine.Addr(m.Peek(db.slotAddr(s) + slotLRU))
	var count int64
	for n != 0 {
		if machine.Addr(m.Peek(n+recPrev)) != prev {
			return "LRU prev link broken"
		}
		if db.slotOf(m.Peek(n+recKey)) != s {
			return "LRU contains record from another slot"
		}
		if count++; count > want {
			return "LRU list longer than slot count (cycle or stale node)"
		}
		prev = n
		n = machine.Addr(m.Peek(n + recNext))
	}
	if count != want {
		return "LRU list shorter than slot count"
	}
	if machine.Addr(m.Peek(db.slotAddr(s)+slotLRUTl)) != prev {
		return "LRU tail pointer does not match walk"
	}
	if db.Cfg.CapPerSlot > 0 && want > db.Cfg.CapPerSlot {
		return "slot exceeds its record cap"
	}
	return ""
}

func (db *DB) checkTree(node machine.Addr, lo, hi uint64, bucket int64) string {
	if node == 0 {
		return ""
	}
	k := db.M.Peek(node + recKey)
	if k < lo || k >= hi {
		return "BST ordering violated"
	}
	s := db.slotOf(k)
	b := int64(hash(k) % uint64(db.Cfg.BucketsPerSlot))
	if s*db.Cfg.BucketsPerSlot+b != bucket {
		return "record in wrong bucket"
	}
	if msg := db.checkTree(machine.Addr(db.M.Peek(node+recLeft)), lo, k, bucket); msg != "" {
		return msg
	}
	return db.checkTree(machine.Addr(db.M.Peek(node+recRight)), k, hi, bucket)
}
