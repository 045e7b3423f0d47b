package machine

// pageState is the per-page virtual-memory bookkeeping.
type pageState struct {
	resident   bool
	referenced bool
}

// pager implements demand paging with a residency limit and CLOCK eviction.
// The model is deliberately small: what matters to the experiments is that
// (a) working sets beyond the residency limit fault continuously and
// (b) faults abort in-flight hardware transactions.
type pager struct {
	enabled       bool
	pageWords     int64
	residentLimit int64
	pages         []pageState
	residentCount int64
	hand          int64
}

func (p *pager) init(cfg Config) {
	p.enabled = cfg.Paging.Enabled
	p.pageWords = cfg.Paging.PageWords
	p.residentLimit = cfg.Paging.ResidentLimit
	if !p.enabled {
		return
	}
	n := (cfg.MemWords + p.pageWords - 1) / p.pageWords
	p.pages = make([]pageState, n)
}

// makeResident brings page in and, if the residency limit is exceeded,
// evicts a victim chosen by the CLOCK algorithm (with TLB shootdown).
func (p *pager) makeResident(m *Machine, page int64) {
	if p.pages[page].resident {
		return
	}
	p.pages[page].resident = true
	p.residentCount++
	if p.residentLimit <= 0 {
		return
	}
	for p.residentCount > p.residentLimit {
		victim := p.clockVictim(page)
		if victim < 0 {
			return
		}
		p.pages[victim].resident = false
		p.residentCount--
		shootdown(m, victim)
	}
}

// clockVictim advances the clock hand, clearing reference bits, until it
// finds an unreferenced resident page other than keep.
func (p *pager) clockVictim(keep int64) int64 {
	n := int64(len(p.pages))
	for sweep := int64(0); sweep < 2*n; sweep++ {
		i := p.hand
		p.hand = (p.hand + 1) % n
		st := &p.pages[i]
		if !st.resident || i == keep {
			continue
		}
		if st.referenced {
			st.referenced = false
			continue
		}
		return i
	}
	return -1
}

// shootdown invalidates any TLB entry for page on every CPU.
func shootdown(m *Machine, page int64) {
	for _, c := range m.cpus {
		if len(c.tlb) == 0 {
			continue
		}
		slot := page % int64(len(c.tlb))
		if c.tlb[slot] == page {
			c.tlb[slot] = -1
		}
	}
}

// ResidentPages returns the number of currently resident pages.
func (m *Machine) ResidentPages() int64 { return m.pager.residentCount }
