package permtest

import (
	"fmt"
	"math"
	"testing"

	"trigene/internal/bitvec"
	"trigene/internal/contingency"
	"trigene/internal/dataset"
)

func drawPlane(n, nCases int, seed int64, p int) []uint64 {
	// Dirty on arrival: casePlane must overwrite every word.
	dst := make([]uint64, bitvec.WordsFor(n))
	for i := range dst {
		dst[i] = 0xa5a5a5a5a5a5a5a5
	}
	casePlane(dst, n, nCases, seed, p)
	return dst
}

func samePlane(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCasePlaneShape: for every cohort of up to 200 samples and every
// class split of it — empty and full classes included, which must
// terminate — a drawn plane has exactly nCases bits, none past sample
// n, is a function of (seed, p) alone, and differs across p and across
// seeds wherever the cohort has enough planes for a repeat to mean a
// broken key (C(64, 8) is 4e9).
func TestCasePlaneShape(t *testing.T) {
	for n := 1; n <= 200; n++ {
		for nCases := 0; nCases <= n; nCases++ {
			seed, p := int64(n), 1000*nCases
			plane := drawPlane(n, nCases, seed, p)
			if got := bitvec.PopCount(plane); got != nCases {
				t.Fatalf("n=%d nCases=%d: plane has %d cases", n, nCases, got)
			}
			if pad := plane[len(plane)-1] &^ bitvec.TailMask(n); pad != 0 {
				t.Fatalf("n=%d nCases=%d: pad bits %#x set", n, nCases, pad)
			}
			if !samePlane(plane, drawPlane(n, nCases, seed, p)) {
				t.Fatalf("n=%d nCases=%d: two draws of (seed, p) differ", n, nCases)
			}
			if n >= 64 && nCases >= 8 && n-nCases >= 8 {
				if samePlane(plane, drawPlane(n, nCases, seed, p+1)) {
					t.Fatalf("n=%d nCases=%d: permutations p and p+1 coincide", n, nCases)
				}
				if samePlane(plane, drawPlane(n, nCases, seed+1, p)) {
					t.Fatalf("n=%d nCases=%d: seeds s and s+1 coincide", n, nCases)
				}
			}
		}
	}
}

// TestCasePlaneUniform: a uniform nCases-subset includes every sample
// with probability nCases/n and every pair of samples with probability
// nCases(nCases−1)/(n(n−1)). Over 20000 planes each count must sit
// within 5σ of its mean, for ragged and whole-word cohorts, balanced
// classes (q = 1/2: seven AND digits under one OR), 1:3, and splits
// whose q has ones all over or rounds to a different ratio than the
// class has (so the flips do real work in both directions). Pairs are
// checked between neighbours, across a word boundary and across the
// plane.
func TestCasePlaneUniform(t *testing.T) {
	const planes = 20000
	within := func(t *testing.T, what string, got int, prob float64) {
		t.Helper()
		mean := planes * prob
		sigma := math.Sqrt(planes * prob * (1 - prob))
		if math.Abs(float64(got)-mean) > 5*sigma {
			t.Errorf("%s: %d of %d planes, want %.0f ± %.0f (5σ)", what, got, planes, mean, 5*sigma)
		}
	}
	for _, tc := range []struct{ n, nCases int }{
		{65, 32}, {65, 7}, {65, 60},
		{500, 250}, {500, 125}, {500, 41},
		{1000, 500}, {1000, 333}, {1000, 901},
	} {
		n, nCases := tc.n, tc.nCases
		partners := []int{1, 64, n / 2}
		single := make([]int, n)
		pair := make([][]int, len(partners))
		for k := range pair {
			pair[k] = make([]int, n)
		}
		dst := make([]uint64, bitvec.WordsFor(n))
		bit := func(s int) bool { return dst[s>>6]>>(uint(s)&63)&1 != 0 }
		for p := 0; p < planes; p++ {
			casePlane(dst, n, nCases, 77, p)
			for s := 0; s < n; s++ {
				if !bit(s) {
					continue
				}
				single[s]++
				for k, d := range partners {
					if bit((s + d) % n) {
						pair[k][s]++
					}
				}
			}
		}
		p1 := float64(nCases) / float64(n)
		p2 := p1 * float64(nCases-1) / float64(n-1)
		for s := 0; s < n; s++ {
			within(t, "inclusion", single[s], p1)
			for k := range partners {
				within(t, "co-inclusion", pair[k][s], p2)
			}
		}
		if t.Failed() {
			t.Fatalf("n=%d nCases=%d: planes are not uniform", n, nCases)
		}
	}
}

// TestStreamAgreesWithVersion1 holds stream 2 to the distribution of
// the math/rand Fisher–Yates stream it replaced. The constants were
// recorded from the last commit with stream 1, at 4000 (null) and 2000
// (planted) permutations of the same datasets and seeds: both streams
// sample the same null distribution, so the null hit fractions agree
// within 5σ of the difference of two such draws, and a planted triple
// no relabeling ever matched is still never matched.
func TestStreamAgreesWithVersion1(t *testing.T) {
	const perms = 4000
	mx := nullMatrix(41, 12, 800)
	for _, tc := range []struct {
		snps     []int
		observed float64
		v1Hits   int
	}{
		{[]int{1, 5, 9}, 580.2031739094999, 1233},
		{[]int{2, 7}, 567.4325082933457, 1024},
	} {
		res, err := K(mx, tc.snps, Config{Permutations: perms, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Observed != tc.observed {
			t.Errorf("%v: observed score %v, stream 1 recorded %v", tc.snps, res.Observed, tc.observed)
		}
		f := float64(tc.v1Hits) / perms
		sigma := math.Sqrt(2 * f * (1 - f) * perms)
		if d := math.Abs(float64(res.AsGoodOrBetter - tc.v1Hits)); d > 5*sigma {
			t.Errorf("%v: %d hits of %d, stream 1 had %d (5σ = %.0f)", tc.snps, res.AsGoodOrBetter, perms, tc.v1Hits, 5*sigma)
		}
	}

	it := &dataset.Interaction{SNPs: [3]int{2, 8, 14}, Penetrance: dataset.ThresholdPenetrance(3, 0.05, 0.95)}
	planted, err := dataset.Generate(dataset.GenConfig{
		SNPs: 20, Samples: 1000, Seed: 40, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := K(planted, []int{2, 8, 14}, Config{Permutations: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 260.91418283276704 || res.AsGoodOrBetter != 0 {
		t.Errorf("planted triple: observed %v with %d hits, stream 1 recorded 260.91418283276704 with 0", res.Observed, res.AsGoodOrBetter)
	}
}

// planeBodies are the two bodies of casePlane's fill and of the
// by-sample transpose and counter; the vector ones run only where
// contingency.HasAVX512.
var planeBodies = []struct {
	name   string
	vector bool
}{{"avx512", true}, {"go", false}}

// TestCasePlaneBodiesAgree holds the AVX-512 fill to the Go body, word
// for word: every q from 0 to 256 (all 257 digit-mask patterns), plane
// lengths on both sides of each 8-word block boundary (n = 1…600 and
// around 8192 and 16384 samples), negative seeds and p near 2^31. The
// weight the fill returns, where it leaves the counter and the finished
// plane must agree too.
func TestCasePlaneBodiesAgree(t *testing.T) {
	if !contingency.HasAVX512() {
		t.Skip("no AVX-512 body in this build or on this host")
	}
	keys := []struct {
		seed int64
		p    int
	}{{1, 0}, {-3, 7}, {math.MinInt64, 1<<31 - 1}, {-1 << 40, 1 << 31}, {977, 1<<31 - 2}}
	var ns []int
	for n := 1; n <= 600; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 8191, 8192, 16383, 16384, 16385)
	covered := make(map[uint]bool)
	k := 0
	for _, n := range ns {
		words := bitvec.WordsFor(n)
		tail := bitvec.TailMask(n)
		seen := make(map[uint]bool)
		for nCases := 0; nCases <= n; nCases++ {
			q := uint((256*nCases + n/2) / n)
			if seen[q] {
				continue
			}
			seen[q], covered[q] = true, true
			key := keys[k%len(keys)]
			k++

			var m [9]uint64
			for d := range m {
				m[d] = -uint64(q >> d & 1)
			}
			vec, ref := make([]uint64, words), make([]uint64, words)
			for i := range vec {
				vec[i], ref[i] = 0xa5a5a5a5a5a5a5a5, 0x5a5a5a5a5a5a5a5a
			}
			rv := newRNG(key.seed, key.p)
			rg := rv
			wv := fill(vec, &rv, &m, tail, true)
			wg := fill(ref, &rg, &m, tail, false)
			if wv != wg || rv != rg || !samePlane(vec, ref) {
				t.Fatalf("n=%d q=%d seed=%d p=%d: vector fill (weight %d, counter %#x) != Go fill (weight %d, counter %#x) or their words differ",
					n, q, key.seed, key.p, wv, uint64(rv), wg, uint64(rg))
			}
			if wg != bitvec.PopCount(ref) {
				t.Fatalf("n=%d q=%d: fill returned weight %d of a plane of %d", n, q, wg, bitvec.PopCount(ref))
			}

			casePlaneWith(vec, n, nCases, key.seed, key.p, true)
			casePlaneWith(ref, n, nCases, key.seed, key.p, false)
			if !samePlane(vec, ref) {
				t.Fatalf("n=%d nCases=%d seed=%d p=%d: the two bodies draw different planes", n, nCases, key.seed, key.p)
			}
		}
	}
	if len(covered) != 257 {
		t.Errorf("covered %d of the 257 values of q", len(covered))
	}
}

// FuzzCasePlane: on any cohort, class split and key, a plane has exactly
// nCases bits, none past sample n, and the AVX-512 body (where it runs)
// draws the Go body's plane.
func FuzzCasePlane(f *testing.F) {
	f.Add(uint16(600), uint16(300), int64(1), int64(0))
	f.Add(uint16(512), uint16(511), int64(-9), int64(1<<31-1))
	f.Add(uint16(16385), uint16(4000), int64(math.MinInt64), int64(1<<31))
	// At most 64 samples, where a batch of eight draws often repeats a
	// position, both ways.
	f.Add(uint16(40), uint16(37), int64(5), int64(11))
	f.Add(uint16(64), uint16(3), int64(6), int64(12))
	f.Add(uint16(9), uint16(5), int64(7), int64(13))
	// No flips: no class, or every sample a case.
	f.Add(uint16(300), uint16(0), int64(8), int64(14))
	f.Add(uint16(300), uint16(300), int64(9), int64(15))
	// q rounded away from nCases at the widest cohort: about 128 flips,
	// leaving cases (q = 129/256 over 32896) and leaving controls (q =
	// 129/256 under 33150).
	f.Add(uint16(65535), uint16(32896), int64(10), int64(16))
	f.Add(uint16(65535), uint16(33150), int64(11), int64(17))
	f.Fuzz(func(t *testing.T, n, nCases uint16, seed, p int64) {
		if n == 0 {
			return
		}
		nc := int(nCases) % (int(n) + 1)
		ref := make([]uint64, bitvec.WordsFor(int(n)))
		casePlaneGo(ref, int(n), nc, seed, int(p))
		if got := bitvec.PopCount(ref); got != nc {
			t.Fatalf("n=%d nCases=%d: plane has %d cases", n, nc, got)
		}
		if pad := ref[len(ref)-1] &^ bitvec.TailMask(int(n)); pad != 0 {
			t.Fatalf("n=%d nCases=%d: pad bits %#x set", n, nc, pad)
		}
		if contingency.HasAVX512() {
			if got := drawPlane(int(n), nc, seed, int(p)); !samePlane(got, ref) {
				t.Fatalf("n=%d nCases=%d seed=%d p=%d: the two bodies draw different planes", n, nc, seed, p)
			}
		}
	})
}

// TestFlipRejectingLane: the vector flips hand a draw to intn when its
// lane might reject, and carry on from where intn leaves the counter.
// wyrand's word at counter state 0 is 0 (the product of 0 and anything),
// and v = 0 is below intn's rejection threshold for every n that is not a
// power of two, so starting the counter at −(8b+k+1)·weyl puts a
// rejecting word in lane k of batch b. For each lane, three batches and
// both flip directions, the planes must be the Go loop's, and a run that
// meets the word in its first batch must stop before that lane.
func TestFlipRejectingLane(t *testing.T) {
	if !contingency.HasAVX512() {
		t.Skip("no AVX-512 body in this build or on this host")
	}
	for _, n := range []int{200, 1000, 12345, 16384, 16385} {
		words := bitvec.WordsFor(n)
		base := make([]uint64, words)
		r0 := newRNG(int64(n), 0)
		have := fillPlane(base, n, n/2, &r0, false)
		for k := uint64(0); k < 8; k++ {
			for _, b := range []uint64{0, 1, 3} {
				start := -(8*b + k + 1) * weyl
				// Enough flips to reach the word whichever way they go.
				for _, nCases := range []int{have - 8*int(b) - 24, have + 8*int(b) + 24} {
					vec, ref := append([]uint64(nil), base...), append([]uint64(nil), base...)
					rv, rg := rng(start), rng(start)
					flip(vec, n, have, nCases, &rv, true)
					flip(ref, n, have, nCases, &rg, false)
					if !samePlane(vec, ref) || bitvec.PopCount(vec) != nCases {
						t.Fatalf("n=%d lane %d batch %d nCases=%d: the vector flips draw a different plane", n, k, b, nCases)
					}
				}
			}
			// Called directly, the body stops before lane k whichever way
			// it flips; the plane's parity picks the way.
			leave, d := uint64(have&1), 24
			plane := append([]uint64(nil), base...)
			start := -(k + 1) * weyl
			left, at := flipAVX512(&plane[0], n, start, leave, d)
			if at != start+k*weyl || left < d-int(k) {
				t.Fatalf("n=%d lane %d: stopped at counter %#x with %d flips left, want %#x and at least %d", n, k, at, left, start+k*weyl, d-int(k))
			}
		}
	}
}

// TestCasePlaneAllocs: a draw allocates nothing on either body — no
// counter or mask array escapes, and the assembly stub keeps its
// //go:noescape.
func TestCasePlaneAllocs(t *testing.T) {
	const n = 16385
	dst := make([]uint64, bitvec.WordsFor(n))
	for _, body := range planeBodies {
		if body.vector && !contingency.HasAVX512() {
			continue
		}
		p := 0
		if a := testing.AllocsPerRun(20, func() {
			casePlaneWith(dst, n, n/3, -2, p, body.vector)
			p++
		}); a != 0 {
			t.Errorf("body=%s: %.1f allocations per plane, want 0", body.name, a)
		}
	}
}

// BenchmarkCasePlane times one relabeling on both bodies at the
// benchmark's two plane widths, for a balanced cohort, a 1:3 one and one
// whose q is odd: the three must cost the same. The part=fill arms time
// the fill alone, so the gap to part=plane is what the flips cost.
func BenchmarkCasePlane(b *testing.B) {
	for _, body := range planeBodies {
		for _, n := range []int{500, 16384} {
			for _, nCases := range []int{n / 2, n / 4, n * 77 / 256} {
				for _, part := range []string{"plane", "fill"} {
					b.Run(fmt.Sprintf("body=%s/n=%d/cases=%d/part=%s", body.name, n, nCases, part), func(b *testing.B) {
						if body.vector && !contingency.HasAVX512() {
							b.Skip("no AVX-512 body in this build or on this host")
						}
						dst := make([]uint64, bitvec.WordsFor(n))
						for i := 0; i < b.N; i++ {
							if part == "fill" {
								r := newRNG(1, i)
								fillPlane(dst, n, nCases, &r, body.vector)
							} else {
								casePlaneWith(dst, n, nCases, 1, i, body.vector)
							}
						}
					})
				}
			}
		}
	}
}
