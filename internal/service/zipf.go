package service

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"hrwle/internal/machine"
)

// Zipf samples ranks in [0, n) with P(k) ∝ 1/(k+1)^s — rank 0 is the
// hottest key. The sampler is exact for every s ≥ 0 (s = 0 degenerates to
// uniform): the normalized CDF is precomputed once and each draw is one
// Float64 plus a binary search. The O(n) table costs 8 bytes per rank,
// which at the multi-million-key universes the shard workload uses is a
// few MB per table. assignKeys takes its table from sharedZipf, so the
// table is paid once per (n, s) per process, not per point or per draw,
// and the process retains 8 B × n per distinct table: about 50 MB for
// the default shard sweep's 3 tables.
//
// Building a table costs one weight per rank: one math.Exp and one
// math.Log, bit for bit math.Pow's result (see rankWeights). A 2^21-rank
// table at s = 1.2 takes 88–99 ms on one core of a 2-vCPU x86-64 host,
// against 171–220 ms through math.Pow's general path.
//
// Rejection-style samplers (as in math/rand's Zipf) need s > 1 and would
// exclude the s = 0.9 sweep point; the table is exact at any exponent and
// keeps the draw count per sample fixed at one, which the determinism
// tests pin.
type Zipf struct {
	n   int
	cdf []float64 // cdf[k] = P(X ≤ k); cdf[n-1] == 1 by construction
}

// NewZipf builds a sampler over ranks [0, n) with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("service: Zipf universe %d (want > 0)", n))
	}
	if !(s >= 0) || math.IsInf(s, 1) {
		panic(fmt.Sprintf("service: Zipf exponent %v (want finite ≥ 0)", s))
	}
	cdf := make([]float64, n)
	weight := rankWeights(s)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += weight(float64(k + 1))
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // normalization rounding must not leave a reachable gap
	return &Zipf{n: n, cdf: cdf}
}

// rankWeights returns a function that maps an integer rank 1 ≤ x ≤ 2^53
// to math.Pow(x, -s), bit for bit, for a finite s ≥ 0, at about half
// Pow's cost.
//
// Pow takes no special case for such an x and s but s == 0 (it returns
// 1), s == 0.5 (1/Sqrt(x)) and x == 1 (1, which the forms below give
// too). Otherwise it splits s with yi, yf := Modf(s), moves yf into
// (-0.5, 0.5] with yf--, yi++ when yf > 0.5, and sets a1 = Exp(yf*Log(x)),
// or 1 when yf == 0. When yi == 1 it multiplies a1 by the mantissa m of
// x = m·2^e (Frexp); it then takes 1/a1 and scales it by 2^-e with Ldexp
// (e = 0 when yi == 0). A power-of-two scaling is exact away from the
// subnormals and from overflow, and here a1 lies within [x^-0.5, x^0.5]
// and the result within [2^-80, 1]. So Pow's result is 1/(a1*x) when
// yi == 1 and 1/a1 when yi == 0; Exp(0) == 1 covers yf == 0. Every other
// case, yi ≥ 2 (s > 1.5) included, goes to Pow itself, as does every s on
// s390x, whose Pow is its own assembly.
//
// The tempting Exp(-s*Log(x)) rounds differently from Pow on most ranks.
// No product here feeds an addition, so no port can fuse one into an FMA.
func rankWeights(s float64) func(x float64) float64 {
	yi, yf := math.Modf(s)
	if yf > 0.5 {
		yf--
		yi++
	}
	switch {
	case s == 0 || s == 0.5 || yi >= 2 || runtime.GOARCH == "s390x":
		return func(x float64) float64 { return math.Pow(x, -s) }
	case yi == 0:
		return func(x float64) float64 { return 1 / math.Exp(yf*math.Log(x)) }
	default:
		return func(x float64) float64 { return 1 / (math.Exp(yf*math.Log(x)) * x) }
	}
}

// zipfKey is everything a Zipf table depends on.
type zipfKey struct {
	n int
	s float64
}

// zipfTables holds one table per (n, s) for the life of the process.
var zipfTables = machine.Memo[zipfKey, *Zipf]()

// sharedZipf returns the process's one sampler over [0, n) with exponent
// s, building it on first use. Its table is NewZipf's, so every sample is
// the same as a fresh sampler's; callers must not modify it.
func sharedZipf(n int, s float64) *Zipf {
	return zipfTables(zipfKey{n, s}, func() *Zipf { return NewZipf(n, s) })
}

// N returns the universe size.
func (z *Zipf) N() int { return z.n }

// PMF returns the analytic probability of rank k (tests compare empirical
// frequencies against it).
func (z *Zipf) PMF(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Sample draws one rank from the stream: exactly one Float64 per call.
func (z *Zipf) Sample(st *machine.Stream) int {
	u := st.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
