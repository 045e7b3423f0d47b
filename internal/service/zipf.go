package service

import (
	"fmt"
	"math"
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
	if s < 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("service: Zipf exponent %v (want ≥ 0)", s))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // normalization rounding must not leave a reachable gap
	return &Zipf{n: n, cdf: cdf}
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
