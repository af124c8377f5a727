package workload

import (
	"math"
	"testing"
)

func TestZipfExactDistribution(t *testing.T) {
	const n = 100
	const draws = 200000
	rng := NewRand(1)
	z := NewZipf(rng, n, 0.5)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Empirical frequencies should track the exact probabilities.
	for _, rank := range []int{0, 1, 10, 50} {
		want := z.Probability(rank)
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.02+want*0.25 {
			t.Errorf("rank %d: got %.4f, want %.4f", rank, got, want)
		}
	}
	// Rank 0 must dominate rank n-1.
	if counts[0] <= counts[n-1] {
		t.Error("zipf not skewed")
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	rng := NewRand(2)
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("rank %d count %d far from uniform 10000", i, c)
		}
	}
}

func TestZipfApproximateModeInRange(t *testing.T) {
	rng := NewRand(3)
	n := maxExactN + 100 // force the continuous approximation
	z := NewZipf(rng, n, 0.5)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of range", r)
		}
	}
	// Approximate mode refuses Probability.
	defer func() {
		if recover() == nil {
			t.Error("Probability in approximate mode should panic")
		}
	}()
	z.Probability(0)
}

func TestZipfHarmonicAlphaOne(t *testing.T) {
	rng := NewRand(4)
	n := maxExactN + 100
	z := NewZipf(rng, n, 1.0)
	low, high := 0, 0
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < n/100 {
			low++
		}
		if r > n*99/100 {
			high++
		}
	}
	if low <= high {
		t.Error("α=1 should strongly favor low ranks")
	}
}

func TestZipfValidation(t *testing.T) {
	rng := NewRand(5)
	mustPanic(t, func() { NewZipf(rng, 0, 0.5) })
	mustPanic(t, func() { NewZipf(rng, 10, -1) })
}

func TestDeterminism(t *testing.T) {
	a := NewZipf(NewRand(42), 100, 0.5)
	b := NewZipf(NewRand(42), 100, 0.5)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestShuffle(t *testing.T) {
	p := Shuffle(NewRand(1), 100)
	if len(p) != 100 {
		t.Fatalf("len = %d", len(p))
	}
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}
