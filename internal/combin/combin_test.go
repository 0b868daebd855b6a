package combin

import (
	"math/big"
	"strconv"
	"testing"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {5, 3, 10},
		{10, 3, 120}, {2, 3, 0}, {52, 5, 2598960},
		{2048, 3, 1429559296}, {8192, 3, 91592417280},
		{40000, 3, 10665866680000},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascalProperty(t *testing.T) {
	for n := 1; n <= 60; n++ {
		for k := 1; k <= n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Binomial(-1, 2)
}

func TestBinomialOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Binomial(1<<min(40, strconv.IntSize-2), 3) // 1 << 30 where int has 32 bits
}

func TestElements(t *testing.T) {
	// 10000 SNPs, 1600 samples, order 3 (Table III row 1 workload).
	got := Elements(10000, 1600, 3)
	want := float64(Binomial(10000, 3)) * 1600
	if got != want {
		t.Errorf("Elements = %g, want %g", got, want)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	const m = 25
	var rank int64
	ForEachTriple(m, func(i, j, k int) {
		if got := RankTriple(i, j, k); got != rank {
			t.Fatalf("RankTriple(%d,%d,%d) = %d, want %d", i, j, k, got, rank)
		}
		gi, gj, gk := UnrankTriple(rank, m)
		if gi != i || gj != j || gk != k {
			t.Fatalf("UnrankTriple(%d) = (%d,%d,%d), want (%d,%d,%d)", rank, gi, gj, gk, i, j, k)
		}
		rank++
	})
	if rank != Triples(m) {
		t.Fatalf("enumerated %d triples, want %d", rank, Triples(m))
	}
}

func TestRankUnrankLargeM(t *testing.T) {
	// Spot-check the bijection at scale without enumerating.
	const m = 40000
	total := Triples(m)
	for _, r := range []int64{0, 1, total / 3, total / 2, total - 2, total - 1} {
		i, j, k := UnrankTriple(r, m)
		if !(0 <= i && i < j && j < k && k < m) {
			t.Fatalf("UnrankTriple(%d) = invalid (%d,%d,%d)", r, i, j, k)
		}
		if back := RankTriple(i, j, k); back != r {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", r, i, j, k, back)
		}
	}
}

func TestNextTripleMatchesEnumeration(t *testing.T) {
	const m = 12
	i, j, k := 0, 1, 2
	count := int64(1)
	ForEachTriple(m, func(ei, ej, ek int) {
		if ei != i || ej != j || ek != k {
			t.Fatalf("NextTriple drift: have (%d,%d,%d), want (%d,%d,%d)", i, j, k, ei, ej, ek)
		}
		var ok bool
		i, j, k, ok = NextTriple(i, j, k, m)
		if ok {
			count++
		}
	})
	if count != Triples(m) {
		t.Fatalf("NextTriple visited %d, want %d", count, Triples(m))
	}
}

func TestPairRankUnrank(t *testing.T) {
	const m = 30
	var rank int64
	ForEachPair(m, func(i, j int) {
		if got := RankPair(i, j); got != rank {
			t.Fatalf("RankPair(%d,%d) = %d, want %d", i, j, got, rank)
		}
		gi, gj := UnrankPair(rank, m)
		if gi != i || gj != j {
			t.Fatalf("UnrankPair(%d) = (%d,%d), want (%d,%d)", rank, gi, gj, i, j)
		}
		rank++
	})
	if rank != Pairs(m) {
		t.Fatalf("enumerated %d pairs, want %d", rank, Pairs(m))
	}
}

func TestUnrankOutOfRangePanics(t *testing.T) {
	for _, f := range []func(){
		func() { UnrankTriple(-1, 10) },
		func() { UnrankTriple(Triples(10), 10) },
		func() { UnrankPair(Pairs(10), 10) },
		func() { RankTriple(2, 1, 3) },
		func() { RankPair(3, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTripleBlocks(t *testing.T) {
	cases := []struct{ m, bs, want int }{
		{10, 5, 2}, {11, 5, 3}, {5, 5, 1}, {1, 5, 1}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := TripleBlocks(c.m, c.bs); got != c.want {
			t.Errorf("TripleBlocks(%d,%d) = %d, want %d", c.m, c.bs, got, c.want)
		}
	}
}

func TestRankUnrankKMatchesTriples(t *testing.T) {
	const m = 15
	comb := []int{0, 1, 2}
	var rank int64
	for {
		if got := RankK(comb); got != rank {
			t.Fatalf("RankK(%v) = %d, want %d", comb, got, rank)
		}
		if got := RankTriple(comb[0], comb[1], comb[2]); got != rank {
			t.Fatalf("RankK disagrees with RankTriple at %v", comb)
		}
		back := UnrankK(rank, m, make([]int, 3))
		for i := range comb {
			if back[i] != comb[i] {
				t.Fatalf("UnrankK(%d) = %v, want %v", rank, back, comb)
			}
		}
		rank++
		if !NextK(comb, m) {
			break
		}
	}
	if rank != Triples(m) {
		t.Fatalf("NextK visited %d, want %d", rank, Triples(m))
	}
}

func TestRankUnrankKOrder4(t *testing.T) {
	const m, k = 12, 4
	comb := []int{0, 1, 2, 3}
	var rank int64
	for {
		if got := RankK(comb); got != rank {
			t.Fatalf("RankK(%v) = %d, want %d", comb, got, rank)
		}
		back := UnrankK(rank, m, make([]int, k))
		for i := range comb {
			if back[i] != comb[i] {
				t.Fatalf("UnrankK(%d) = %v, want %v", rank, back, comb)
			}
		}
		// Strictly increasing invariant.
		for i := 1; i < k; i++ {
			if back[i-1] >= back[i] {
				t.Fatalf("UnrankK produced non-increasing %v", back)
			}
		}
		rank++
		if !NextK(comb, m) {
			break
		}
	}
	if rank != Binomial(m, k) {
		t.Fatalf("visited %d, want C(%d,%d)=%d", rank, m, k, Binomial(m, k))
	}
}

func TestRankKPanicsOnBadInput(t *testing.T) {
	for _, f := range []func(){
		func() { RankK([]int{3, 3}) },
		func() { UnrankK(-1, 10, make([]int, 2)) },
		func() { UnrankK(Binomial(10, 2), 10, make([]int, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestBinomialCheckedAtTheLimit: at every order the search takes, the
// largest M whose C(M,k) fits an int64 gives the exact count, and one SNP
// more is refused, not wrapped or panicked on. The counts are
// math/big's.
func TestBinomialCheckedAtTheLimit(t *testing.T) {
	for k, limit := range map[int]int{3: 3810779, 4: 121977, 5: 16175, 6: 4337, 7: 1733} {
		want := new(big.Int).Binomial(int64(limit), int64(k))
		if got, ok := BinomialChecked(limit, k); !ok || !want.IsInt64() || got != want.Int64() {
			t.Errorf("C(%d,%d) = %d, %v; want %v, true", limit, k, got, ok, want)
		}
		if got, ok := BinomialChecked(limit+1, k); ok {
			t.Errorf("C(%d,%d) = %d; want it refused as beyond int64", limit+1, k, got)
		}
	}
	for n := 0; n <= 70; n++ {
		for k := 0; k <= n; k++ {
			want := new(big.Int).Binomial(int64(n), int64(k))
			got, ok := BinomialChecked(n, k)
			if ok != want.IsInt64() || ok && got != want.Int64() {
				t.Fatalf("C(%d,%d) = %d, %v; want %v", n, k, got, ok, want)
			}
		}
	}
}
