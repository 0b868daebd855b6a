package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.want {
			t.Errorf("WordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailMask(t *testing.T) {
	if TailMask(0) != ^uint64(0) {
		t.Errorf("TailMask(0) = %x, want all ones", TailMask(0))
	}
	if TailMask(64) != ^uint64(0) {
		t.Errorf("TailMask(64) = %x, want all ones", TailMask(64))
	}
	if TailMask(1) != 1 {
		t.Errorf("TailMask(1) = %x, want 1", TailMask(1))
	}
	if TailMask(65) != 1 {
		t.Errorf("TailMask(65) = %x, want 1", TailMask(65))
	}
	if TailMask(10) != (1<<10)-1 {
		t.Errorf("TailMask(10) = %x, want %x", TailMask(10), uint64(1<<10)-1)
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.OnesCount() != len(idx) {
		t.Errorf("OnesCount = %d, want %d", v.OnesCount(), len(idx))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Get(10) },
		func() { v.Get(-1) },
		func() { v.Set(10) },
		func() { v.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestFromWords(t *testing.T) {
	w := []uint64{0xff, 0x1}
	v := FromWords(65, w)
	if v.OnesCount() != 9 {
		t.Errorf("OnesCount = %d, want 9", v.OnesCount())
	}
	// Mutating the shared slice is visible through the vector.
	w[0] = 0
	if v.OnesCount() != 1 {
		t.Errorf("OnesCount after mutation = %d, want 1", v.OnesCount())
	}
}

func TestFromWordsBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong word count")
		}
	}()
	FromWords(65, []uint64{0})
}

func TestFromWordsDirtyTailPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dirty tail bits")
		}
	}()
	FromWords(10, []uint64{1 << 11})
}

func TestString(t *testing.T) {
	v := New(5)
	v.Set(1)
	v.Set(4)
	if got := v.String(); got != "01001" {
		t.Errorf("String = %q, want 01001", got)
	}
}

// Property: the NOR-derived plane of two disjoint planes completes the
// partition — the three planes popcount to n once the tail is masked,
// and to every bit of the words, pad bits included, before.
func TestNorPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		r := rand.New(rand.NewSource(seed))
		// Build two disjoint planes as a genotype encoding would.
		p0, p1 := New(n), New(n)
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				p0.Set(i)
			case 1:
				p1.Set(i)
			}
		}
		p2 := make([]uint64, WordsFor(n))
		Nor(p2, p0.Words(), p1.Words())
		stored := p0.OnesCount() + p1.OnesCount()
		if stored+PopCount(p2) != len(p2)*WordBits {
			return false
		}
		p2[len(p2)-1] &= TailMask(n)
		return stored+PopCount(p2) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
