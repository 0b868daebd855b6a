package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// validateReference is Matrix.Validate one value at a time: the first
// genotype above 2, then the first phenotype above 1, then a missing
// class.
func validateReference(mx *Matrix) error {
	for idx, g := range mx.geno {
		if g > 2 {
			return fmt.Errorf("dataset: SNP %d sample %d: invalid genotype %d", idx/mx.n, idx%mx.n, g)
		}
	}
	for j, p := range mx.phen {
		if p > 1 {
			return fmt.Errorf("dataset: sample %d: invalid phenotype %d", j, p)
		}
	}
	controls, cases := mx.ClassCounts()
	if controls == 0 || cases == 0 {
		return fmt.Errorf("dataset: degenerate dataset: %d controls, %d cases", controls, cases)
	}
	return nil
}

// checkPackPass holds the validate-and-pack pass over mx to the
// references: Validate and HashMatrix give validateReference's error, Pack
// gives the row-at-a-time genotype section (and, where every phenotype is
// 0 or 1, the phenotype section), and HashMatrix's digest is theirs.
func checkPackPass(t *testing.T, mx *Matrix) {
	t.Helper()
	want := referencePack(mx)
	got := Pack(mx)
	if !bytes.Equal(got.Geno, want.Geno) || got.M != want.M || got.N != want.N {
		t.Fatalf("%dx%d: Pack differs from packing row by row", mx.m, mx.n)
	}
	wantErr := validateReference(mx)
	if wantErr == nil && !bytes.Equal(got.Phen, want.Phen) {
		t.Fatalf("%dx%d: Pack's phenotype section %x, want %x", mx.m, mx.n, got.Phen, want.Phen)
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if err := mx.Validate(); errText(err) != errText(wantErr) {
		t.Fatalf("%dx%d: Validate = %v, want %v", mx.m, mx.n, err, wantErr)
	}
	hash, err := HashMatrix(mx)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%dx%d: HashMatrix error %v, want %v", mx.m, mx.n, err, wantErr)
	}
	if err == nil && hash != want.Hash() {
		t.Fatalf("%dx%d: HashMatrix = %s, Pack(mx).Hash() = %s", mx.m, mx.n, hash, want.Hash())
	}
	if err != nil && hash != "" {
		t.Fatalf("%dx%d: HashMatrix returned %q with its error", mx.m, mx.n, hash)
	}
}

// TestPackBodiesAgree runs the AVX-512 body and the SWAR body over the
// same steps of 64 genotypes, clean and with one bad byte of every value
// class at every position of a step: they must agree on whether the
// steps are clean, and on the packed bytes when they are.
func TestPackBodiesAgree(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 body on this host or build")
	}
	r := rand.New(rand.NewSource(1))
	for _, steps := range []int{1, 2, 3, 17} {
		src := make([]uint8, 64*steps)
		for i := range src {
			src[i] = uint8(r.Intn(3))
		}
		check := func(label string, wantClean bool) {
			vec, swar := make([]byte, 16*steps), make([]byte, 16*steps)
			clean := packBlocksAVX512(&vec[0], &src[0], steps)
			if swarClean := packSWAR(swar, src); clean != swarClean || clean != wantClean {
				t.Fatalf("%d steps, %s: AVX-512 body says clean=%v, SWAR body %v, want %v", steps, label, clean, swarClean, wantClean)
			}
			if clean && !bytes.Equal(vec, swar) {
				t.Fatalf("%d steps, %s: AVX-512 body packed %x, SWAR body %x", steps, label, vec, swar)
			}
		}
		check("clean", true)
		for _, at := range []int{0, 1, 2, 3, 31, 62, 63, len(src) - 1} {
			for _, bad := range []uint8{3, 4, 7, 8, 64, 128, 255} {
				keep := src[at]
				src[at] = bad
				check(fmt.Sprintf("byte %d = %d", at, bad), false)
				src[at] = keep
			}
		}
	}
}

// TestPackPassShapes: shapes whose M*N is not a multiple of 4 or of 64,
// and one of several chunks, each clean, with a genotype of 3, 4 or 255 in
// the first, the last or a tail byte (past the last whole 64-byte step),
// with a phenotype of 2, and with one class only.
func TestPackPassShapes(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 3}, {3, 5}, {5, 13}, {2, 32}, {7, 9}, {4, 16}, {3, 70}, {9, 127}, {3, 30011}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		t.Run(fmt.Sprintf("%dx%d", m, n), func(t *testing.T) {
			fresh := func() *Matrix {
				mx := randomMatrix(int64(m*n), m, n)
				mx.phen[0], mx.phen[n-1] = Control, Case
				if n == 1 {
					mx.phen[0] = Case
				}
				return mx
			}
			checkPackPass(t, fresh())
			size := m * n
			for _, at := range []int{0, size / 2, size &^ 63, size - 1} {
				if at >= size {
					continue // no tail: M*N is whole steps
				}
				for _, bad := range []uint8{3, 4, 255} {
					mx := fresh()
					mx.geno[at] = bad
					checkPackPass(t, mx)
				}
			}
			mx := fresh()
			mx.phen[n/2] = 2
			checkPackPass(t, mx)
			for _, class := range []uint8{Control, Case} {
				mx := fresh()
				for j := range mx.phen {
					mx.phen[j] = class
				}
				checkPackPass(t, mx)
			}
		})
	}
}

// FuzzPackMatrix drives the validate-and-pack pass with arbitrary
// genotype and phenotype bytes: Pack, Validate and HashMatrix must agree
// with the row-at-a-time pack and the value-at-a-time check
// (checkPackPass), whatever the shape and however many bytes are out of
// range, and the two bodies must agree on whole steps.
func FuzzPackMatrix(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 2, 1, 0, 1, 0, 1})
	f.Add(uint8(1), []byte{3, 0, 1})
	f.Add(uint8(2), bytes.Repeat([]byte{2, 1, 0, 1}, 40))
	f.Add(uint8(5), append(bytes.Repeat([]byte{1}, 130), 255, 0, 1, 2, 1))
	f.Fuzz(func(t *testing.T, samples uint8, data []byte) {
		n := int(samples)%40 + 1
		if len(data) <= n {
			return
		}
		// The last n bytes are the phenotypes (mostly 0 and 1); the
		// rest, cut to whole rows, the genotypes.
		phen, geno := data[len(data)-n:], data[:len(data)-n]
		m := len(geno) / n
		if m == 0 {
			return
		}
		mx := NewMatrix(m, n)
		copy(mx.geno, geno)
		for j, b := range phen {
			mx.phen[j] = b & 1
			if b&0xF0 == 0xF0 {
				mx.phen[j] = 2
			}
		}
		checkPackPass(t, mx)
		if steps := len(mx.geno) / 64; hasAVX512 && steps > 0 {
			vec, swar := make([]byte, 16*steps), make([]byte, 16*steps)
			clean := packBlocksAVX512(&vec[0], &mx.geno[0], steps)
			if packSWAR(swar, mx.geno[:64*steps]) != clean || clean && !bytes.Equal(vec, swar) {
				t.Fatalf("the AVX-512 and SWAR bodies disagree over %d steps", steps)
			}
		}
	})
}
