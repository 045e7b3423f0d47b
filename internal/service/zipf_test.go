package service

import (
	"math"
	"testing"

	"hrwle/internal/machine"
)

// TestZipfDeterministic pins that two samplers built from the same
// parameters, fed by streams with the same seed, produce identical rank
// sequences — the property every shard-sweep determinism gate rests on.
func TestZipfDeterministic(t *testing.T) {
	for _, s := range []float64{0, 0.9, 1.2} {
		a, b := NewZipf(4096, s), NewZipf(4096, s)
		sa, sb := machine.NewStream(42), machine.NewStream(42)
		for i := 0; i < 10_000; i++ {
			ka, kb := a.Sample(sa), b.Sample(sb)
			if ka != kb {
				t.Fatalf("s=%v draw %d: %d vs %d", s, i, ka, kb)
			}
		}
	}
}

// TestZipfSeedSensitivity checks that distinct stream seeds give distinct
// sequences: a sampler that ignored its stream would still pass the
// determinism test.
func TestZipfSeedSensitivity(t *testing.T) {
	z := NewZipf(1<<16, 0.9)
	sa, sb := machine.NewStream(1), machine.NewStream(2)
	same := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if z.Sample(sa) == z.Sample(sb) {
			same++
		}
	}
	// At s=0.9 over 64k ranks, collisions concentrate on the head but two
	// independent streams still disagree on the vast majority of draws.
	if same > draws/2 {
		t.Fatalf("seeds 1 and 2 agreed on %d/%d draws", same, draws)
	}
}

// TestZipfFrequency draws a large sample and compares empirical rank
// frequencies to the analytic pmf within a pinned tolerance band: the top
// ranks (where mass concentrates) must match to a few percent relative
// error, and the total variation distance over the whole support must be
// small. Tolerances have ~3x headroom over the observed error at this
// sample size, so the test fails on a wrong distribution, not on noise.
func TestZipfFrequency(t *testing.T) {
	const (
		n     = 1000
		draws = 400_000
	)
	for _, s := range []float64{0, 0.9, 1.2} {
		z := NewZipf(n, s)
		st := machine.NewStream(7)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Sample(st)]++
		}
		tv := 0.0
		for k := 0; k < n; k++ {
			emp := float64(counts[k]) / draws
			tv += math.Abs(emp - z.PMF(k))
		}
		tv /= 2
		if tv > 0.02 {
			t.Errorf("s=%v: total variation %.4f > 0.02", s, tv)
		}
		for k := 0; k < 10; k++ {
			emp := float64(counts[k]) / draws
			pmf := z.PMF(k)
			// 2% systematic band plus 5 binomial standard errors: tight on
			// the heavy head, sampling-noise-aware on near-uniform tails.
			tol := 0.02*pmf + 5*math.Sqrt(pmf*(1-pmf)/draws)
			if math.Abs(emp-pmf) > tol {
				t.Errorf("s=%v rank %d: empirical %.5f vs pmf %.5f (|err| > %.5f)",
					s, k, emp, pmf, tol)
			}
		}
	}
}

// TestZipfPMFSumsToOne sanity-checks the table normalization.
func TestZipfPMFSumsToOne(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.9, 1.2, 2} {
		z := NewZipf(257, s)
		sum := 0.0
		for k := 0; k < z.N(); k++ {
			sum += z.PMF(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("s=%v: pmf sums to %v", s, sum)
		}
	}
}

// TestKeyedScheduleInvariance pins the keyed-demand isolation properties:
// (a) enabling keys does not change any pre-existing schedule field, and
// (b) changing CrossPct changes only which requests carry a secondary key,
// never the primary keys.
func TestKeyedScheduleInvariance(t *testing.T) {
	base := DefaultConfig("hashmap")
	base.Requests = 500
	base.Arrivals.RatePerSec = 1e6

	plain, err := GenerateSchedule(base)
	if err != nil {
		t.Fatal(err)
	}
	keyed := base
	keyed.Keys = KeyConfig{Universe: 1 << 12, Skew: 1.2, CrossPct: 10}
	withKeys, err := GenerateSchedule(keyed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		p, k := plain[i], withKeys[i]
		if p.ArriveAt != k.ArriveAt || p.Class != k.Class || p.IsWrite != k.IsWrite ||
			p.Work != k.Work || p.Footprint != k.Footprint || p.Seed != k.Seed {
			t.Fatalf("request %d: keyed demand perturbed the base schedule", i)
		}
		if p.Key != -1 || p.Key2 != -1 {
			t.Fatalf("request %d: keys assigned with keyed demand off", i)
		}
		if k.Key < 0 || k.Key >= 1<<12 {
			t.Fatalf("request %d: key %d outside universe", i, k.Key)
		}
		if k.Key2 != -1 && !k.IsWrite {
			t.Fatalf("request %d: secondary key on a read", i)
		}
	}

	noCross := keyed
	noCross.Keys.CrossPct = 0
	without, err := GenerateSchedule(noCross)
	if err != nil {
		t.Fatal(err)
	}
	anyCross := false
	for i := range withKeys {
		if withKeys[i].Key != without[i].Key {
			t.Fatalf("request %d: CrossPct shifted primary key %d -> %d",
				i, withKeys[i].Key, without[i].Key)
		}
		if without[i].Key2 != -1 {
			t.Fatalf("request %d: secondary key with CrossPct=0", i)
		}
		if withKeys[i].Key2 != -1 {
			anyCross = true
		}
	}
	if !anyCross {
		t.Fatal("CrossPct=10 produced no multi-key request in 500 arrivals")
	}
}

// TestZipfMemoSharesOneTablePerKey pins the shared Zipf tables: each
// (n, s) has one table, bit-identical to a fresh NewZipf's, that every
// later caller of that key gets, and a different n or a different s gets
// a table of its own.
func TestZipfMemoSharesOneTablePerKey(t *testing.T) {
	keys := []zipfKey{{1000, 0}, {1000, 0.9}, {1000, 1.2}, {4096, 0.9}, {4096, 1.2}}
	tables := map[*Zipf]zipfKey{}
	for _, k := range keys {
		z, fresh := sharedZipf(k.n, k.s), NewZipf(k.n, k.s)
		if z.N() != k.n || len(z.cdf) != len(fresh.cdf) {
			t.Fatalf("%+v: shared table has n=%d and %d ranks, want %d", k, z.N(), len(z.cdf), k.n)
		}
		for i := range z.cdf {
			if math.Float64bits(z.cdf[i]) != math.Float64bits(fresh.cdf[i]) {
				t.Fatalf("%+v: shared cdf[%d] = %v, NewZipf's = %v", k, i, z.cdf[i], fresh.cdf[i])
			}
		}
		if again := sharedZipf(k.n, k.s); again != z {
			t.Fatalf("%+v: second call returned another table", k)
		}
		if prev, ok := tables[z]; ok {
			t.Fatalf("%+v and %+v share one table", prev, k)
		}
		tables[z] = k
	}
}

// TestRankWeightMatchesPow pins rankWeights to math.Pow bit for bit: at
// every rank of the shard store's 2^21-key universe for the exponents the
// sweeps use, and at strided ranks up to 2^53 for an exponent on each of
// its branches (Pow's own special cases 0 and 0.5, yi = 0, yi = 1 with and
// without a fraction, yf moved below zero, and yi ≥ 2).
func TestRankWeightMatchesPow(t *testing.T) {
	check := func(weight func(float64) float64, x, s float64) {
		t.Helper()
		if got, want := weight(x), math.Pow(x, -s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rank %v, s=%v: weight %v (%#x), Pow %v (%#x)",
				x, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, s := range []float64{0, 0.9, 1.2} {
		weight := rankWeights(s)
		for x := 1; x <= 1<<21; x++ {
			check(weight, float64(x), s)
		}
	}
	for _, s := range []float64{0.1, 0.5, 0.6, 0.99, 1, 1.01, 1.3, 1.49, 1.5, 2, 3} {
		weight := rankWeights(s)
		for x := 1; x <= 1<<21; x += 61 {
			check(weight, float64(x), s)
		}
		for x := float64(1 << 21); x < 1<<53; x = math.Floor(x * 1.7) {
			check(weight, x, s)
		}
		check(weight, 1<<53, s)
	}
}

// TestZipfTableMatchesPowReference compares the shard store's tables, bit
// for bit, with a table built here from math.Pow in the same order: the
// same sums, the same normalization and the same last entry.
func TestZipfTableMatchesPowReference(t *testing.T) {
	const n = 1 << 21
	for _, s := range []float64{0.9, 1.2} {
		ref := make([]float64, n)
		sum := 0.0
		for k := range ref {
			sum += math.Pow(float64(k+1), -s)
			ref[k] = sum
		}
		inv := 1 / sum
		for k := range ref {
			ref[k] *= inv
		}
		ref[n-1] = 1
		z := NewZipf(n, s)
		for k := range ref {
			if math.Float64bits(z.cdf[k]) != math.Float64bits(ref[k]) {
				t.Fatalf("s=%v: cdf[%d] = %v, reference %v", s, k, z.cdf[k], ref[k])
			}
		}
	}
}
