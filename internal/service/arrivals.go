package service

import (
	"fmt"
	"math"

	"hrwle/internal/machine"
)

// GenerateSchedule draws the complete open-loop arrival schedule for a
// point: arrival times, class assignment, write flag, work and footprint
// demands, and a per-request parameter seed. The schedule is a pure
// function of (Config, Config.Seed) and is fixed before the machine runs,
// so arrivals cannot depend on service progress — the open-system
// property. Requests are returned in nondecreasing ArriveAt order.
func GenerateSchedule(c Config) ([]Request, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	for i := range c.Classes {
		cl := &c.Classes[i]
		if err := cl.Work.check(); err != nil {
			return nil, fmt.Errorf("class %q work: %w", cl.Name, err)
		}
		if err := cl.Footprint.check(); err != nil {
			return nil, fmt.Errorf("class %q footprint: %w", cl.Name, err)
		}
	}
	s := machine.NewStream(scheduleSeed(c.Seed))
	times := arrivalTimes(s, c.Arrivals, c.Requests)
	// Cumulative class shares for the percent draw.
	var cum [8]int
	acc := 0
	for i := range c.Classes {
		acc += c.Classes[i].Share
		cum[i] = acc
	}
	reqs := make([]Request, c.Requests)
	for i := range reqs {
		r := &reqs[i]
		r.ArriveAt = times[i]
		// Exactly four main-stream draws per request, independent of any
		// distribution parameter: changing a class's work or footprint
		// distribution must not shift the class/write draws of later
		// requests (part of the open-loop invariant the tests pin).
		p := s.Intn(100)
		for ci := range c.Classes {
			if p < cum[ci] {
				r.Class = ci
				break
			}
		}
		cl := &c.Classes[r.Class]
		r.IsWrite = s.Intn(100) < cl.WritePct
		r.Seed = s.Next()
		// Service demands come from a per-request sub-stream (distinct
		// from r.Seed, which the executor consumes for op parameters).
		demand := machine.NewStream(s.Next())
		r.Work = cl.Work.Sample(demand)
		if fp := cl.Footprint.Sample(demand); fp < 1 {
			r.Footprint = 1
		} else {
			r.Footprint = int(fp)
		}
		r.Path = -1
		r.Key, r.Key2 = -1, -1
	}
	assignKeys(&c, reqs)
	return reqs, nil
}

// assignKeys fills each request's Zipfian key(s) from the dedicated key
// stream. Exactly three key-stream draws per request — the cross-shard
// percent draw and the secondary-key draw happen even when discarded — so
// changing CrossPct (or a request being a read) never shifts the keys of
// later requests.
func assignKeys(c *Config, reqs []Request) {
	if c.Keys.Universe <= 0 {
		return
	}
	z := sharedZipf(c.Keys.Universe, c.Keys.Skew)
	ks := machine.NewStream(keySeed(c.Seed))
	for i := range reqs {
		r := &reqs[i]
		r.Key = z.Sample(ks)
		cross := ks.Intn(100) < c.Keys.CrossPct
		k2 := z.Sample(ks)
		if r.IsWrite && cross {
			r.Key2 = k2
		}
	}
}

// arrivalTimes draws n arrival instants (cycles) for the process.
func arrivalTimes(s *machine.Stream, a ArrivalConfig, n int) []int64 {
	times := make([]int64, n)
	switch a.Process {
	case MMPP:
		mmppTimes(s, a, times)
	default:
		poissonTimes(s, a.RatePerSec, times)
	}
	return times
}

// expGap draws an exponential inter-event gap with the given mean cycles.
// The +1 floor keeps virtual time strictly advancing per draw.
func expGap(s *machine.Stream, meanCycles float64) int64 {
	g := int64(-meanCycles*math.Log(1-s.Float64()) + 0.5)
	if g < 1 {
		g = 1
	}
	return g
}

// poissonTimes fills times with a Poisson process of rate ratePerSec.
func poissonTimes(s *machine.Stream, ratePerSec float64, times []int64) {
	meanGap := machine.CyclesPerSecond / ratePerSec
	t := int64(0)
	for i := range times {
		t += expGap(s, meanGap)
		times[i] = t
	}
}

// mmppTimes fills times with a 2-state MMPP. The base-state rate λ0 is
// chosen so the long-run rate equals RatePerSec: with burst factor k and
// burst time-fraction f, λ = λ0·(1−f) + k·λ0·f, so λ0 = λ/(1−f+f·k).
// State sojourns are exponential: mean burstMeanCycles bursting, and
// Tb·(1−f)/f in the base state so the stationary burst fraction is f.
// Because sojourns are memoryless, redrawing the arrival gap at each
// state switch is an exact simulation of the modulated process.
func mmppTimes(s *machine.Stream, a ArrivalConfig, times []int64) {
	// k, f and sojournB are float64 variables on purpose: folded as
	// constants, 1 - f + f*k would be exactly 1.7, not the float64 sum
	// 1.7000000000000002, and every mean gap would move by its last bit.
	var k, f, sojournB float64 = burstFactor, burstFrac, burstMeanCycles
	rate0 := a.RatePerSec / (1 - f + f*k)
	meanGap0 := machine.CyclesPerSecond / rate0
	meanGapB := meanGap0 / k
	sojournN := sojournB * (1 - f) / f

	t := int64(0)
	burst := false
	switchAt := t + expGap(s, sojournN)
	for i := range times {
		for {
			gap := meanGap0
			if burst {
				gap = meanGapB
			}
			next := t + expGap(s, gap)
			if next <= switchAt {
				t = next
				break
			}
			// The candidate arrival falls past the state switch: advance to
			// the switch, flip state, and redraw (memorylessness).
			t = switchAt
			burst = !burst
			if burst {
				switchAt = t + expGap(s, sojournB)
			} else {
				switchAt = t + expGap(s, sojournN)
			}
		}
		times[i] = t
	}
}
