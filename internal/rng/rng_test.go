package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same sequence")
		}
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(42)
	b := New(42)
	// Consume some of b before splitting.
	for i := 0; i < 57; i++ {
		b.Float64()
	}
	ca := a.Split("child")
	cb := b.Split("child")
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatal("split streams must not depend on parent consumption")
		}
	}
}

func TestSplitDistinctNames(t *testing.T) {
	s := New(1)
	a := s.Split("alpha")
	b := s.Split("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("streams with distinct names look correlated: %d/64 equal draws", same)
	}
}

func TestSplitN(t *testing.T) {
	s := New(9)
	a := s.SplitN("router", 3)
	b := s.SplitN("router", 3)
	c := s.SplitN("router", 4)
	if a.Float64() != b.Float64() {
		t.Error("SplitN with same index must match")
	}
	if a.Seed() == c.Seed() {
		t.Error("SplitN with different index must differ")
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(2)
	for i := 0; i < 20; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) must be false")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) must be true")
		}
	}
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.27 || p > 0.33 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestExpMean(t *testing.T) {
	s := New(3)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += s.Exp(140)
	}
	mean := sum / float64(n)
	if mean < 135 || mean > 145 {
		t.Errorf("Exp(140) sample mean = %v", mean)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 20000; i++ {
		v := s.BoundedPareto(2, 500, 1.1)
		if v < 2 || v > 500 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
	// Degenerate bound.
	if v := s.BoundedPareto(5, 5, 1.1); v != 5 {
		t.Errorf("degenerate BoundedPareto = %v, want 5", v)
	}
}

func TestZipfRankOne(t *testing.T) {
	s := New(6)
	draw := s.Zipf(1.2, 1000)
	counts := map[int]int{}
	for i := 0; i < 50000; i++ {
		k := draw()
		if k < 1 || k > 1000 {
			t.Fatalf("Zipf rank out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Errorf("Zipf counts not decreasing: r1=%d r2=%d r10=%d", counts[1], counts[2], counts[10])
	}
}

func TestWeightedIndex(t *testing.T) {
	s := New(7)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedIndex(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight indices sampled: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestCumulativeMatchesWeightedIndex(t *testing.T) {
	w := []float64{2, 0, 5, 1, 0, 7}
	c := NewCumulative(w)
	s := New(8)
	counts := make([]int, len(w))
	n := 90000
	for i := 0; i < n; i++ {
		counts[c.Sample(s)]++
	}
	if counts[1] != 0 || counts[4] != 0 {
		t.Errorf("zero-weight indices sampled: %v", counts)
	}
	for i, want := range []float64{2.0 / 15, 0, 5.0 / 15, 1.0 / 15, 0, 7.0 / 15} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency = %v, want %v", i, got, want)
		}
	}
	if total := c.cum[len(c.cum)-1]; total != 15 {
		t.Errorf("total weight = %v, want 15", total)
	}
}

func TestCumulativeZeroTotalUniform(t *testing.T) {
	c := NewCumulative([]float64{0, 0, 0})
	s := New(10)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[c.Sample(s)] = true
	}
	if len(seen) != 3 {
		t.Errorf("zero-total sampler should fall back to uniform; saw %v", seen)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 2); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}
