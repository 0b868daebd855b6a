package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The .raw reader's three per-byte stages have two bodies each: the
// AVX-512 one, which runs where hasAVX512, and the Go one, which runs
// everywhere else and is the oracle here. Each test holds both to a
// value-at-a-time reference over the shapes that reach every step and
// edge of the vector body.

// decodeReference is rawFastCodes one (separator, digit) pair at a time.
func decodeReference(tail []byte, row []uint8) bool {
	if len(tail) != 2*len(row) {
		return false
	}
	sep := tail[0]
	if sep != ' ' && sep != '\t' {
		return false
	}
	for k := range row {
		d := tail[2*k+1]
		if tail[2*k] != sep || d < '0' || d > '2' {
			return false
		}
		row[k] = d - '0'
	}
	return true
}

// checkDecode runs both decode bodies and the reference over tail into a
// row of m codes: they must agree on the shape, and on the codes where it
// holds.
func checkDecode(t *testing.T, tail []byte, m int, label string) {
	t.Helper()
	want := make([]uint8, m)
	ok := decodeReference(tail, want)
	for _, vector := range []bool{true, false} {
		row := make([]uint8, m)
		for i := range row {
			row[i] = 0xEE
		}
		if got := rawFastCodes(tail, row, vector); got != ok {
			t.Fatalf("%s, vector=%v: decode says %v, reference %v\ntail %q", label, vector, got, ok, tail)
		}
		if ok && !bytes.Equal(row, want) {
			t.Fatalf("%s, vector=%v: codes %v, want %v", label, vector, row, want)
		}
	}
}

// plinkTail is the PLINK shape of codes: one sep before each digit.
func plinkTail(codes []uint8, sep byte) []byte {
	tail := make([]byte, 0, 2*len(codes))
	for _, c := range codes {
		tail = append(tail, sep, '0'+c)
	}
	return tail
}

// TestRawDecodeBodiesAgree: tails of every length from 1 to 200 bytes,
// clean and with random corruption (one or two bytes set to a bad code,
// NA's letters, the other separator, another blank, a control or a
// non-ASCII byte), and for one, two and two-and-a-bit 32-code steps every
// position of a step set to every such byte.
func TestRawDecodeBodiesAgree(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 body in this build or on this host")
	}
	bad := []byte{'3', '9', 'N', 'A', ' ', '\t', '\r', '\v', '/', '0' - 1, 0, 0x80, 0xB0, 0xFF}
	r := rand.New(rand.NewSource(1))
	codes := func(m int) []uint8 {
		c := make([]uint8, m)
		for i := range c {
			c[i] = uint8(r.Intn(3))
		}
		return c
	}
	for n := 1; n <= 200; n++ {
		for _, sep := range []byte{' ', '\t'} {
			// A tail of n bytes against a row of n/2 codes: odd n is a
			// separator short or a digit over.
			m := max(n/2, 1)
			tail := plinkTail(codes((n+1)/2), sep)[:n]
			checkDecode(t, tail, m, fmt.Sprintf("n=%d clean", n))
			for trial := 0; trial < 24; trial++ {
				bent := bytes.Clone(tail)
				for k := 0; k <= trial%2; k++ {
					bent[r.Intn(n)] = bad[r.Intn(len(bad))]
				}
				checkDecode(t, bent, m, fmt.Sprintf("n=%d trial %d", n, trial))
			}
		}
	}
	for _, m := range []int{32, 64, 70} {
		tail := plinkTail(codes(m), ' ')
		for at := range tail {
			for _, b := range bad {
				bent := bytes.Clone(tail)
				bent[at] = b
				checkDecode(t, bent, m, fmt.Sprintf("m=%d byte %d = %q", m, at, b))
			}
		}
	}
}

// transposeReference packs staged rows into a chunk one quad byte at a
// time: SNP c's quad q is rows 4q..4q+3 of column c, two bits each, the
// missing rows of the last quad zero.
func transposeReference(staged []uint8, m, rows int) []byte {
	stride := (rows + 3) / 4
	out := make([]byte, m*stride)
	for c := 0; c < m; c++ {
		for q := 0; q < stride; q++ {
			var b byte
			for k := 0; k < 4 && 4*q+k < rows; k++ {
				b |= staged[(4*q+k)*m+c] << (2 * k)
			}
			out[c*stride+q] = b
		}
	}
	return out
}

// TestRawTransposeBodiesAgree: every M mod 64 (M = 1..130, so cut tiles
// of every width alone and after a whole one, and M = 191, 200), at row
// counts of every residue mod 4 on both sides of one and two whole tiles
// of quads. Staging past the rows, a tile's width of it too, holds bytes
// no code has, which the transpose must clear or cut away, not pack.
func TestRawTransposeBodiesAgree(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 body in this build or on this host")
	}
	r := rand.New(rand.NewSource(2))
	var ms []int
	for m := 1; m <= 130; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 191, 200)
	for _, m := range ms {
		for _, rows := range []int{1, 255, 256, 257, 258, 259, 513, 514} {
			stride := (rows + 3) / 4
			staged := make([]uint8, 4*stride*m+rawTile)
			for i := range staged {
				staged[i] = 0xFF
				if i < rows*m {
					staged[i] = uint8(r.Intn(3))
				}
			}
			want := transposeReference(staged, m, rows)
			for _, vector := range []bool{true, false} {
				tok := rawTokenizer{m: m, vector: vector, rows: bytes.Clone(staged)}
				if got := tok.transpose(rows); !bytes.Equal(got, want) {
					t.Fatalf("m=%d rows=%d vector=%v: chunk differs from the reference", m, rows, vector)
				}
			}
		}
	}
}

func entry(section []byte, i int) uint8 { return section[i/4] >> (i % 4 * 2) & 3 }

// TestCopyGenotypesBodiesAgree: a chunk's row lands at every offset mod
// 32 (and so every shift and every position of a 32-entry word), with
// counts on both sides of one, two and four 256-entry steps, from a byte-
// aligned entry (which the AVX-512 body takes) and from one that is not.
// The destination's other entries hold random codes: they must come
// through untouched, and the source's entries before and past the copied
// run must not leak in.
func TestCopyGenotypesBodiesAgree(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 body in this build or on this host")
	}
	r := rand.New(rand.NewSource(3))
	src := make([]byte, 512)
	r.Read(src)
	for _, count := range []int{1, 31, 255, 256, 257, 300, 511, 512, 513, 1024, 1031} {
		for off := 0; off < 32; off++ {
			for _, from := range []int{0, 4, 64, 5, 7} {
				to := 96 + off
				size := (to + count + 3) / 4
				base := make([]byte, size+9)
				r.Read(base)
				for i := to; i < to+count; i++ {
					base[i/4] &^= 3 << (i % 4 * 2)
				}
				var outs [2][]byte
				for b, vector := range []bool{true, false} {
					dst := bytes.Clone(base)
					copyGenotypes(dst, to, src, from, count, vector)
					for i := 0; i < 4*len(dst); i++ {
						want := entry(base, i)
						if i >= to && i < to+count {
							want = entry(src, from+i-to)
						}
						if got := entry(dst, i); got != want {
							t.Fatalf("count=%d to=%d from=%d vector=%v: entry %d = %d, want %d", count, to, from, vector, i, got, want)
						}
					}
					outs[b] = dst
				}
				if !bytes.Equal(outs[0], outs[1]) {
					t.Fatalf("count=%d to=%d from=%d: the bodies' bytes differ", count, to, from)
				}
			}
		}
	}
}
