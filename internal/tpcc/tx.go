package tpcc

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// Transaction parameter structs are drawn OUTSIDE the critical section so
// that a speculative re-execution replays the identical transaction (the
// critical-section bodies are pure functions of database state + params).

// OrderLineReq is one requested line of a New-Order.
type OrderLineReq struct {
	Item    int64 // 0-based item index
	SupplyW int64 // 0-based supplying warehouse
	Qty     uint64
}

// NewOrderParams parameterizes a New-Order transaction.
type NewOrderParams struct {
	W, D, C int64 // 0-based warehouse, district, customer
	Lines   []OrderLineReq
}

// PrepareOrderBlock allocates the 16-line block (order header + up to 15
// order lines) a New-Order will fill. Allocate outside the critical
// section.
func (db *DB) PrepareOrderBlock(t *htm.Thread) machine.Addr {
	return t.AllocAligned(orderBlockWords)
}

// NewOrder executes the New-Order transaction body (write critical
// section): reads warehouse/district/customer and the ordered items'
// stock, updates stock, assigns the next order id, fills the order block,
// and installs it in the district's recent ring, the customer's last-order
// slot and the new-order queue. It returns the order total in cents.
func (db *DB) NewOrder(t *htm.Thread, p NewOrderParams, block machine.Addr) uint64 {
	wh := db.warehouse(p.W)
	di := db.district(p.W, p.D)
	cu := db.customer(p.W, p.D, p.C)

	wtax := t.Load(wh + whTax)
	dtax := t.Load(di + diTax)
	t.Load(cu + cuBalance) // customer discount stand-in

	oid := t.Load(di + diNextOID)
	t.Store(di+diNextOID, oid+1)

	t.Store(block+orID, oid)
	t.Store(block+orCID, uint64(p.C+1))
	t.Store(block+orDID, uint64(p.D+1))
	t.Store(block+orWID, uint64(p.W+1))
	t.Store(block+orCarrier, 0)
	t.Store(block+orOLCnt, uint64(len(p.Lines)))
	t.Store(block+orEntryD, oid)
	t.Store(block+orNextNew, 0)

	var total uint64
	for l, req := range p.Lines {
		price := t.Load(db.item(req.Item) + itPrice)
		st := db.stockOf(req.SupplyW, req.Item)
		qty := t.Load(st + stQty)
		if qty >= req.Qty+10 {
			qty -= req.Qty
		} else {
			qty = qty - req.Qty + 91
		}
		t.Store(st+stQty, qty)
		t.Store(st+stYTD, t.Load(st+stYTD)+req.Qty)
		t.Store(st+stOrderCnt, t.Load(st+stOrderCnt)+1)
		if req.SupplyW != p.W {
			t.Store(st+stRemoteCnt, t.Load(st+stRemoteCnt)+1)
		}
		amount := req.Qty * price
		total += amount
		ol := block + machine.Addr((l+1)*16)
		t.Store(ol+olIID, uint64(req.Item+1))
		t.Store(ol+olSupplyW, uint64(req.SupplyW+1))
		t.Store(ol+olQty, req.Qty)
		t.Store(ol+olAmount, amount)
		t.Store(ol+olDeliveryD, 0)
	}
	total += total * (wtax + dtax) / 10000

	// Recent-order ring (read by Stock-Level).
	idx := t.Load(di + diRingIdx)
	t.Store(di+diRing+machine.Addr(idx%RecentOrders), uint64(block))
	t.Store(di+diRingIdx, idx+1)
	// Customer's last order (read by Order-Status).
	t.Store(cu+cuLastOrder, uint64(block))
	// New-order queue append (consumed by Delivery).
	tail := t.Load(di + diNOTail)
	if tail == 0 {
		t.Store(di+diNOHead, uint64(block))
	} else {
		t.Store(machine.Addr(tail)+orNextNew, uint64(block))
	}
	t.Store(di+diNOTail, uint64(block))
	return total
}

// CustomerByLastName resolves a customer the TPC-C way: read the
// district's index entry for the name and take the middle customer
// (position ⌈n/2⌉, spec §2.5.2.2). Call inside a critical section — the
// index reads are part of the transaction's footprint.
func (db *DB) CustomerByLastName(t *htm.Thread, w, d, name int64) int64 {
	arr := db.nameIndex[(w*db.Cfg.DistrictsPerWH+d)*LastNames+name]
	n := t.Load(arr)
	if n == 0 {
		return 0
	}
	cu := machine.Addr(t.Load(arr + machine.Addr((n+1)/2)))
	return int64(t.Load(cu+cuID)) - 1
}

// PaymentParams parameterizes a Payment transaction.
type PaymentParams struct {
	W, D, C int64
	// ByName, when >= 0, selects the customer through the last-name
	// index inside the critical section (TPC-C: 60% of Payments),
	// overriding C.
	ByName int64
	Amount uint64 // cents
}

// Payment executes the Payment transaction body (write critical section):
// warehouse and district YTD, customer balance/payment counters, and a
// history-ring append.
func (db *DB) Payment(t *htm.Thread, p PaymentParams) {
	wh := db.warehouse(p.W)
	di := db.district(p.W, p.D)
	cid := p.C
	if p.ByName >= 0 {
		cid = db.CustomerByLastName(t, p.W, p.D, p.ByName)
	}
	cu := db.customer(p.W, p.D, cid)

	t.Store(wh+whYTD, t.Load(wh+whYTD)+p.Amount)
	t.Store(di+diYTD, t.Load(di+diYTD)+p.Amount)
	t.Store(cu+cuBalance, t.Load(cu+cuBalance)-p.Amount)
	t.Store(cu+cuYTDPayment, t.Load(cu+cuYTDPayment)+p.Amount)
	t.Store(cu+cuPaymentCnt, t.Load(cu+cuPaymentCnt)+1)

	idx := t.Load(db.histIdx[p.W])
	t.Store(db.histIdx[p.W], idx+1)
	entry := db.history[p.W] + machine.Addr(idx%uint64(db.Cfg.HistoryREntries)*16)
	t.Store(entry+hiCID, uint64(cid+1))
	t.Store(entry+hiDID, uint64(p.D+1))
	t.Store(entry+hiAmount, p.Amount)
	t.Store(entry+hiDate, idx)
}

// OrderStatus executes the Order-Status read-only transaction: the
// customer's balance and last order with all its lines. Returns the number
// of lines read. byName >= 0 selects the customer through the last-name
// index (TPC-C: 60% of Order-Status transactions).
func (db *DB) OrderStatus(t *htm.Thread, w, d, c, byName int64) int {
	if byName >= 0 {
		c = db.CustomerByLastName(t, w, d, byName)
	}
	cu := db.customer(w, d, c)
	t.Load(cu + cuBalance)
	order := machine.Addr(t.Load(cu + cuLastOrder))
	if order == 0 {
		return 0
	}
	t.Load(order + orID)
	t.Load(order + orCarrier)
	t.Load(order + orEntryD)
	n := int(t.Load(order + orOLCnt))
	for l := 0; l < n; l++ {
		ol := order + machine.Addr((l+1)*16)
		t.Load(ol + olIID)
		t.Load(ol + olQty)
		t.Load(ol + olAmount)
		t.Load(ol + olDeliveryD)
	}
	return n
}

// DeliveryResult reports what a Delivery committed, for host-side audit.
type DeliveryResult struct {
	Orders int    // orders delivered (≤ districts)
	Amount uint64 // total credited to customer balances
}

// Delivery executes the Delivery transaction body (write critical
// section): for every district of the warehouse, pop the oldest
// undelivered order, stamp the carrier and delivery dates, and credit the
// customer. This is TPC-C's heavyweight writer: it can touch well over a
// hundred cache lines, exceeding even ROT write capacity, so under RW-LE
// it typically completes on the non-speculative path.
func (db *DB) Delivery(t *htm.Thread, w int64, carrier uint64) DeliveryResult {
	var res DeliveryResult
	for d := int64(0); d < db.Cfg.DistrictsPerWH; d++ {
		di := db.district(w, d)
		head := machine.Addr(t.Load(di + diNOHead))
		if head == 0 {
			continue
		}
		next := t.Load(head + orNextNew)
		t.Store(di+diNOHead, next)
		if next == 0 {
			t.Store(di+diNOTail, 0)
		}
		t.Store(head+orCarrier, carrier)
		n := int(t.Load(head + orOLCnt))
		var sum uint64
		for l := 0; l < n; l++ {
			ol := head + machine.Addr((l+1)*16)
			t.Store(ol+olDeliveryD, carrier)
			sum += t.Load(ol + olAmount)
		}
		cid := int64(t.Load(head+orCID)) - 1
		cu := db.customer(w, d, cid)
		t.Store(cu+cuBalance, t.Load(cu+cuBalance)+sum)
		t.Store(cu+cuDeliveryCnt, t.Load(cu+cuDeliveryCnt)+1)
		res.Orders++
		res.Amount += sum
	}
	return res
}

// StockLevel executes the Stock-Level read-only transaction: scan the
// district's last RecentOrders orders, and count distinct items whose
// stock quantity is below the threshold. With 20 orders × up to 15 lines,
// each with a stock-row read, this is the section that blows the HTM read
// budget for roughly half of HLE's read attempts.
func (db *DB) StockLevel(t *htm.Thread, w, d int64, threshold uint64) int {
	di := db.district(w, d)
	seen := db.itemSet(t.C.ID)
	low := 0
	for i := 0; i < RecentOrders; i++ {
		order := machine.Addr(t.Load(di + diRing + machine.Addr(i)))
		if order == 0 {
			continue
		}
		n := int(t.Load(order + orOLCnt))
		for l := 0; l < n; l++ {
			ol := order + machine.Addr((l+1)*16)
			iid := t.Load(ol + olIID)
			if iid == 0 || seen.stamp[iid] == seen.gen {
				continue
			}
			seen.stamp[iid] = seen.gen
			st := db.stockOf(w, int64(iid-1))
			if t.Load(st+stQty) < threshold {
				low++
			}
		}
	}
	return low
}

// itemSet is one CPU's Stock-Level scratch set of item ids: id iid is in
// the set when stamp[iid] == gen. It is host-side state, invisible to the
// simulation, and reused across executions so that Stock-Level makes no
// host allocation.
type itemSet struct {
	stamp []uint32 // indexed by 1-based item id
	gen   uint32
}

// itemSet returns CPU cpu's item set, emptied for a new Stock-Level
// execution. Every execution starts here, so a re-execution after an abort
// mid-scan starts from an empty set too. The set is per CPU because a Load
// can park the CPU mid-scan, and another CPU's Stock-Level then runs
// before this one resumes.
func (db *DB) itemSet(cpu int) *itemSet {
	s := &db.seen[cpu]
	if s.stamp == nil {
		s.stamp = make([]uint32, db.Cfg.Items+1)
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2^32 executions ago would match
		clear(s.stamp)
		s.gen = 1
	}
	return s
}
