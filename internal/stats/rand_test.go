package stats

import (
	"math"
	"testing"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRand(7)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(10) bucket %d count %d far from 1000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestBool(t *testing.T) {
	r := NewRand(11)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 2700 || hits > 3300 {
		t.Fatalf("Bool(0.3) hit %d / 10000", hits)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams with different tags should differ")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.2)
	r := NewRand(17)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("Zipf not skewed: c0=%d c10=%d c90=%d", counts[0], counts[10], counts[90])
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRand(19)
	var sum int
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Poisson(4)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("Poisson(4) mean = %v", mean)
	}
	if NewRand(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
}

func TestPick(t *testing.T) {
	r := NewRand(23)
	xs := []int{1, 2, 3, 4, 5}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Pick never chose some elements: %v", seen)
	}
}
