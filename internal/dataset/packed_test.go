package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// packGenotypes writes row into the 2-bit section packed (zeroed) from
// entry idx on: two bytes at a time where eight of the row's genotypes
// fill them, singly where the row starts or ends inside a byte it shares
// with its neighbour. It is the row-at-a-time form Pack's flat
// validate-and-pack pass is held to; a byte above 2 packs as code 3.
func packGenotypes(packed []byte, idx int, row []uint8) {
	head := min(len(row), -idx&3) // up to the next byte boundary
	body := (len(row) - head) &^ 7
	singly := func(idx int, row []uint8) {
		for j, g := range row {
			packed[(idx+j)/4] |= min(g, 3) << (uint(idx+j) % 4 * 2)
		}
	}
	singly(idx, row[:head])
	dst := packed[(idx+head)/4:]
	for j := head; j < head+body; j, dst = j+8, dst[2:] {
		x := clampCodes(binary.LittleEndian.Uint64(row[j:]))
		x |= x>>6 | x>>12 | x>>18
		dst[0], dst[1] = byte(x), byte(x>>32)
	}
	singly(idx+head+body, row[head+body:])
}

// TestPackGenotypesMatchesPerGenotypeForm holds the byte-at-a-time pack
// and unpack to the one-genotype-at-a-time definition of the section, at
// every alignment of a row against the bytes.
func TestPackGenotypesMatchesPerGenotypeForm(t *testing.T) {
	for n := 1; n <= 13; n++ {
		mx := generated(t, 5, n+1, int64(n))
		m, n := mx.SNPs(), mx.Samples()
		want := make([]byte, (m*n+3)/4)
		got := make([]byte, len(want))
		for i := 0; i < m; i++ {
			for j, g := range mx.Row(i) {
				idx := i*n + j
				want[idx/4] |= g << (uint(idx%4) * 2)
			}
			packGenotypes(got, i*n, mx.Row(i))
		}
		if string(got) != string(want) {
			t.Fatalf("%dx%d: packed %x, want %x", m, n, got, want)
		}
		row := make([]uint8, n)
		for i := 0; i < m; i++ {
			unpackGenotypes(row, got, i*n)
			if string(row) != string(mx.Row(i)) {
				t.Fatalf("%dx%d: SNP %d unpacked %v, want %v", m, n, i, row, mx.Row(i))
			}
		}
	}
}

// TestPackedSelectAndDecode: Select gathers rows from and to every entry
// of a byte — the shifted word copy under the .raw reader's assembly and
// the screened search's subset — and Pack, Select and Matrix agree with
// the matrix they came from, at GOMAXPROCS 1 and 4 (runs of SNPs on
// several goroutines share no byte).
func TestPackedSelectAndDecode(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{1, 2, 3, 5, 31, 32, 33, 63, 97, 130} {
			t.Run(fmt.Sprintf("P%d/N%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				mx := randomMatrix(int64(n), 21, n)
				p := Pack(mx)
				if !matricesEqual(p.Matrix(), mx) {
					t.Fatal("Pack then Matrix does not give the matrix back")
				}
				snps := []int{20, 0, 3, 3, 7, 1, 2, 19, 18, 11, 5, 6, 4, 9, 8, 10, 12, 13, 20}
				sub := NewMatrix(len(snps), n)
				for k, snp := range snps {
					copy(sub.Row(k), mx.Row(snp))
				}
				copy(sub.Phenotypes(), mx.Phenotypes())
				got, want := p.Select(snps), Pack(sub)
				if !bytes.Equal(got.Geno, want.Geno) || !bytes.Equal(got.Phen, want.Phen) || got.M != want.M || got.N != n {
					t.Fatalf("Select differs from packing the selected rows")
				}
			})
		}
	}
}
