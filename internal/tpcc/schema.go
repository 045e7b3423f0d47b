// Package tpcc ports the TPC-C benchmark to an in-memory store on the
// simulated machine, adapted exactly as the paper describes for Fig. 10:
// read-only transactions (Order-Status, Stock-Level) run as read critical
// sections and update transactions (New-Order, Payment, Delivery) as write
// critical sections under one read-write lock.
//
// The schema follows TPC-C: warehouses → districts → customers, a global
// item catalog, per-warehouse stock, orders with order lines, per-district
// new-order queues, and a payment history ring. Rows are line-aligned
// records in simulated memory; an order and its (up to 15) order lines
// share one 16-line block so New-Order can pre-allocate its storage
// outside the (speculative) critical section.
//
// Stock-Level's scan of the last 20 orders' lines and their stock rows is
// what makes ~half of this workload's read sections exceed HTM capacity —
// the paper reports read sections "fall prey of capacity exceptions in
// about 45% of the cases" under HLE.
package tpcc

import "hrwle/internal/machine"

// Row layouts (word offsets). One cache line per row unless noted.
const (
	// Warehouse.
	whID  = 0
	whTax = 1 // basis points
	whYTD = 2 // cents

	// District (2 lines: header + recent-order ring).
	diID      = 0
	diWID     = 1
	diTax     = 2
	diYTD     = 3
	diNextOID = 4
	diNOHead  = 5 // new-order queue (undelivered orders), FIFO
	diNOTail  = 6
	diRingIdx = 7
	diRing    = 8 // RecentOrders order addresses follow
	// RecentOrders is the length of the district's recent-order ring,
	// read by Stock-Level (TPC-C's "last 20 orders").
	RecentOrders = 20
	diWords      = diRing + RecentOrders

	// Customer.
	cuID          = 0
	cuDID         = 1
	cuWID         = 2
	cuBalance     = 3 // cents (signed, two's complement in a word)
	cuYTDPayment  = 4
	cuPaymentCnt  = 5
	cuDeliveryCnt = 6
	cuLastOrder   = 7

	// Item.
	itID    = 0
	itPrice = 1

	// Stock.
	stIID       = 0
	stWID       = 1
	stQty       = 2
	stYTD       = 3
	stOrderCnt  = 4
	stRemoteCnt = 5

	// Order header (line 0 of an order block).
	orID      = 0
	orCID     = 1
	orDID     = 2
	orWID     = 3
	orCarrier = 4
	orOLCnt   = 5
	orEntryD  = 6
	orNextNew = 7 // new-order queue link

	// Order line (lines 1..15 of an order block).
	olIID       = 0
	olSupplyW   = 1
	olQty       = 2
	olAmount    = 3
	olDeliveryD = 4

	// MaxOrderLines per order (TPC-C: 5..15).
	MaxOrderLines = 15
	// orderBlockWords: header line + 15 order-line lines.
	orderBlockWords = 16 * 16

	// History entry (one line) and per-warehouse ring header.
	hiCID    = 0
	hiDID    = 1
	hiAmount = 2
	hiDate   = 3

	// LastNames is the number of distinct customer last names (TPC-C
	// derives names from a 3-syllable scheme; customers are distributed
	// round-robin here). The per-district last-name index maps a name to
	// the customers bearing it, ordered by id; selection "by last name"
	// picks the middle customer, per the specification.
	LastNames = 32
)

// Config scales the database.
type Config struct {
	Warehouses        int64
	DistrictsPerWH    int64 // TPC-C: 10
	CustomersPerDist  int64 // TPC-C: 3000 (scaled down)
	Items             int64 // TPC-C: 100,000 (scaled down)
	HistoryREntries   int64 // per-warehouse history ring size
	InitialOrdersPerD int64 // preloaded orders per district
	Seed              uint64
}

// DefaultConfig approximates the paper's setup scaled to container memory.
func DefaultConfig() Config {
	return Config{
		Warehouses:        4,
		DistrictsPerWH:    10,
		CustomersPerDist:  256,
		Items:             4096,
		HistoryREntries:   1024,
		InitialOrdersPerD: RecentOrders + 4,
		Seed:              13,
	}
}

// MemWords estimates the footprint, with headroom for orders created
// during a run of maxOps operations.
func (c Config) MemWords(maxOps int64) int64 {
	rows := c.Warehouses*16 + // warehouse lines
		c.Warehouses*c.DistrictsPerWH*48 + // districts (2+ lines)
		c.Warehouses*c.DistrictsPerWH*c.CustomersPerDist*16 +
		c.Items*16 +
		c.Warehouses*c.Items*16 + // stock
		c.Warehouses*(c.HistoryREntries*16+16) +
		(c.Warehouses*c.DistrictsPerWH*c.InitialOrdersPerD+maxOps+64)*orderBlockWords
	return rows + 1<<15
}

// DB is a built TPC-C database.
type DB struct {
	Cfg Config
	M   *machine.Machine

	warehouses []machine.Addr
	districts  []machine.Addr // [w*DistrictsPerWH + d]
	customers  []machine.Addr // [(w*D + d)*CustomersPerDist + c]
	items      []machine.Addr
	stock      []machine.Addr // [w*Items + i]
	history    []machine.Addr // per-warehouse ring base
	histIdx    []machine.Addr // per-warehouse ring cursor word

	// nameIndex[(w*D+d)*LastNames + name] is the address of a word array:
	// [count, custAddr...] — the district's customers with that last
	// name, ordered by customer id. Built once; TPC-C's last-name index
	// is read-only at runtime (customers are never created or renamed).
	nameIndex []machine.Addr

	seen []itemSet // per-CPU Stock-Level scratch, [CPU ID]
}

// lastNameOf assigns customer c its last name (round-robin, as a stand-in
// for TPC-C's NURand syllable scheme — what matters to the workload is
// the index fan-out, CustomersPerDist/LastNames customers per name).
func lastNameOf(c int64) int64 { return c % LastNames }

func (db *DB) warehouse(w int64) machine.Addr { return db.warehouses[w] }
func (db *DB) district(w, d int64) machine.Addr {
	return db.districts[w*db.Cfg.DistrictsPerWH+d]
}
func (db *DB) customer(w, d, c int64) machine.Addr {
	return db.customers[(w*db.Cfg.DistrictsPerWH+d)*db.Cfg.CustomersPerDist+c]
}
func (db *DB) item(i int64) machine.Addr       { return db.items[i] }
func (db *DB) stockOf(w, i int64) machine.Addr { return db.stock[w*db.Cfg.Items+i] }

// Build constructs and populates the database with raw stores.
func Build(m *machine.Machine, cfg Config) *DB {
	db := &DB{Cfg: cfg, M: m, seen: make([]itemSet, m.Cfg.CPUs)}
	rng := machine.NewStream(cfg.Seed*0x9e3779b97f4a7c15 + 3)

	for w := int64(0); w < cfg.Warehouses; w++ {
		wh := m.AllocRawAligned(3)
		m.Poke(wh+whID, uint64(w+1))
		m.Poke(wh+whTax, uint64(rng.Intn(2000)))
		db.warehouses = append(db.warehouses, wh)

		for d := int64(0); d < cfg.DistrictsPerWH; d++ {
			di := m.AllocRawAligned(diWords)
			m.Poke(di+diID, uint64(d+1))
			m.Poke(di+diWID, uint64(w+1))
			m.Poke(di+diTax, uint64(rng.Intn(2000)))
			m.Poke(di+diNextOID, 1)
			db.districts = append(db.districts, di)
			for c := int64(0); c < cfg.CustomersPerDist; c++ {
				cu := m.AllocRawAligned(8)
				m.Poke(cu+cuID, uint64(c+1))
				m.Poke(cu+cuDID, uint64(d+1))
				m.Poke(cu+cuWID, uint64(w+1))
				m.Poke(cu+cuBalance, negCents(1000)) // TPC-C: -10.00
				db.customers = append(db.customers, cu)
			}
		}
		hist := m.AllocRawAligned(cfg.HistoryREntries * 16)
		idx := m.AllocRawAligned(1)
		db.history = append(db.history, hist)
		db.histIdx = append(db.histIdx, idx)
	}

	for i := int64(0); i < cfg.Items; i++ {
		it := m.AllocRawAligned(2)
		m.Poke(it+itID, uint64(i+1))
		m.Poke(it+itPrice, uint64(100+rng.Intn(9900))) // cents
		db.items = append(db.items, it)
	}
	for w := int64(0); w < cfg.Warehouses; w++ {
		for i := int64(0); i < cfg.Items; i++ {
			st := m.AllocRawAligned(6)
			m.Poke(st+stIID, uint64(i+1))
			m.Poke(st+stWID, uint64(w+1))
			m.Poke(st+stQty, uint64(10+rng.Intn(91)))
			db.stock = append(db.stock, st)
		}
	}

	// Per-district customer-by-last-name index.
	for w := int64(0); w < cfg.Warehouses; w++ {
		for d := int64(0); d < cfg.DistrictsPerWH; d++ {
			for name := int64(0); name < LastNames; name++ {
				var members []machine.Addr
				for c := int64(0); c < cfg.CustomersPerDist; c++ {
					if lastNameOf(c) == name {
						members = append(members, db.customer(w, d, c))
					}
				}
				arr := m.AllocRawAligned(int64(len(members)) + 1)
				m.Poke(arr, uint64(len(members)))
				for i, cu := range members {
					m.Poke(arr+machine.Addr(i+1), uint64(cu))
				}
				db.nameIndex = append(db.nameIndex, arr)
			}
		}
	}

	// Preload orders so Stock-Level and Order-Status have history from
	// the start. These are built directly (raw) through the same block
	// layout New-Order uses.
	for w := int64(0); w < cfg.Warehouses; w++ {
		for d := int64(0); d < cfg.DistrictsPerWH; d++ {
			for o := int64(0); o < cfg.InitialOrdersPerD; o++ {
				db.rawPreloadOrder(rng, w, d)
			}
		}
	}
	return db
}

// rawPreloadOrder builds one populated order block and installs it in the
// district's bookkeeping (next-o-id, recent ring, customer last-order; odd
// preloaded orders stay in the new-order queue as undelivered).
func (db *DB) rawPreloadOrder(rng *machine.Stream, w, d int64) {
	m := db.M
	cfg := db.Cfg
	di := db.district(w, d)
	block := m.AllocRawAligned(orderBlockWords)
	oid := m.Peek(di + diNextOID)
	m.Poke(di+diNextOID, oid+1)
	cid := int64(rng.Intn(int(cfg.CustomersPerDist)))
	olCnt := 5 + rng.Intn(MaxOrderLines-5+1)
	m.Poke(block+orID, oid)
	m.Poke(block+orCID, uint64(cid+1))
	m.Poke(block+orDID, uint64(d+1))
	m.Poke(block+orWID, uint64(w+1))
	m.Poke(block+orOLCnt, uint64(olCnt))
	m.Poke(block+orEntryD, oid)
	delivered := oid%2 == 0
	if delivered {
		m.Poke(block+orCarrier, uint64(1+rng.Intn(10)))
	}
	for l := 0; l < olCnt; l++ {
		ol := block + machine.Addr((l+1)*16)
		iid := int64(rng.Intn(int(cfg.Items)))
		price := m.Peek(db.item(iid) + itPrice)
		qty := uint64(1 + rng.Intn(10))
		m.Poke(ol+olIID, uint64(iid+1))
		m.Poke(ol+olSupplyW, uint64(w+1))
		m.Poke(ol+olQty, qty)
		m.Poke(ol+olAmount, qty*price)
		if delivered {
			m.Poke(ol+olDeliveryD, oid)
		}
	}
	// Recent-order ring.
	idx := m.Peek(di + diRingIdx)
	m.Poke(di+diRing+machine.Addr(idx%RecentOrders), uint64(block))
	m.Poke(di+diRingIdx, idx+1)
	// Customer's last order.
	m.Poke(db.customer(w, d, cid)+cuLastOrder, uint64(block))
	// Undelivered orders join the new-order queue.
	if !delivered {
		tail := m.Peek(di + diNOTail)
		if tail == 0 {
			m.Poke(di+diNOHead, uint64(block))
		} else {
			m.Poke(machine.Addr(tail)+orNextNew, uint64(block))
		}
		m.Poke(di+diNOTail, uint64(block))
	}
}

// negCents encodes a negative cent amount in a word (two's complement).
func negCents(c int64) uint64 { return uint64(-c) }
