package dataset

import (
	"bytes"
	"testing"
)

// FuzzReadRAW drives the PLINK .raw decoder with arbitrary bytes: it
// must return a valid matrix or an error, never panic, and never emit
// out-of-range genotypes or phenotypes. It is differential too: at the
// production block size and at one that cuts every line, the block reader
// must accept only what the reader it replaced accepts, with the packed
// sections and content hash of that reader's matrix and the same matrix
// decoded, and on ASCII input refuse exactly what that one refuses, with
// the same error text (see checkAgainstReference).
func FuzzReadRAW(f *testing.F) {
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_C\n" +
		"f1 i1 0 0 1 2 0 1\n" +
		"f2 i2 0 0 2 1 2 0\n"))
	f.Add([]byte("FID\tIID\tPAT\tMAT\tSEX\tPHENOTYPE\trs1_A\nf1\ti1\t0\t0\t1\t1\tNA\n")) // NA dosage
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE\n"))                                     // no SNP columns
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE rs1_A\nf1 i1 0 0 1 3 1\n"))              // bad phenotype code
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE rs1_A\nf1 i1 0 0 1 2\n"))                // truncated row
	f.Add([]byte("not a raw header\n"))
	f.Add([]byte(""))
	f.Add([]byte("\r\n FID IID PAT MAT SEX PHENOTYPE a b c d e f g h i\r\n\nf i 0 0 1 2 0 1 2 0 1 2 0 1 2\r\nf i 0 0 1 1\t2\t2\t2 2 2 2 2 2  2")) // fast and slow lines, CRLF, no final newline
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE a b\nf\u00a0x i 0 0 1 2 0 1\nf i 0 0 1 2 0\u00851\n"))                                            // white space outside ASCII
	f.Add([]byte("FID IID PAT MAT SEX PHENOTYPE a b c d e f g h\nf i 0 0 1 9 0 1 2 0 1 2 3 NA\n"))                                                // phenotype before code
	for _, seed := range rawVectorSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data, rawBlockSize, 8)
		mx, err := ReadRAW(bytes.NewReader(data))
		if err != nil {
			return
		}
		if mx == nil {
			t.Fatal("nil matrix with nil error")
		}
		if mx.SNPs() < 1 || mx.Samples() < 1 {
			t.Fatalf("accepted empty matrix: %dx%d", mx.SNPs(), mx.Samples())
		}
		for i := 0; i < mx.SNPs(); i++ {
			for j, g := range mx.Row(i) {
				if g > 2 {
					t.Fatalf("SNP %d sample %d: genotype %d out of range", i, j, g)
				}
			}
		}
		for j, p := range mx.Phenotypes() {
			if p > 1 {
				t.Fatalf("sample %d: phenotype %d out of range", j, p)
			}
		}
	})
}

// rawVectorSeeds are inputs that reach the decode's 32-code AVX-512 steps
// and their remainders: files of M = 31, 32, 33, 64 and 95 SNPs, one with
// CRLF line ends, and a file of M = 32 whose second sample line has, at
// one position of its one 64-byte step, a code of 3 or NA in place of a
// digit, or a doubled blank or a tab in place of a separating space.
func rawVectorSeeds() [][]byte {
	var seeds [][]byte
	for i, m := range []int{31, 32, 33, 64, 95} {
		seeds = append(seeds, rawText(randomMatrix(int64(i), m, 3)))
	}
	seeds = append(seeds, bytes.ReplaceAll(rawText(randomMatrix(5, 64, 3)), []byte("\n"), []byte("\r\n")))
	text := rawText(randomMatrix(6, 32, 3))
	lines := bytes.SplitAfter(text, []byte("\n"))
	line := bytes.TrimSuffix(lines[2], []byte("\n"))
	head, tail := line[:len(line)-64], line[len(line)-64:]
	for at := range tail {
		var bents [][]byte
		if at%2 == 1 {
			bents = [][]byte{{'3'}, []byte("NA")}
		} else {
			bents = [][]byte{[]byte("  "), {'\t'}}
		}
		for _, b := range bents {
			bent := append(append(append(bytes.Clone(head), tail[:at]...), b...), tail[at+1:]...)
			seed := append(append(bytes.Join(lines[:2], nil), bent...), '\n')
			seeds = append(seeds, append(seed, bytes.Join(lines[3:], nil)...))
		}
	}
	return seeds
}

// FuzzReadBED drives the PLINK .bed decoder with arbitrary triplets:
// it must return a valid matrix or an error, never panic, and never
// emit out-of-range genotypes or phenotypes. The sidecars are fuzzed
// too, since they fix the dimensions the blob is decoded against.
func FuzzReadBED(f *testing.F) {
	f.Add([]byte{0x6c, 0x1b, 0x01, 0b11_10_00_11, 0b10_11_00_10},
		[]byte("1 rs0 0 1 A G\n1 rs1 0 2 A G\n"),
		[]byte("f a 0 0 1 1\nf b 0 0 1 2\nf c 0 0 2 2\nf d 0 0 2 1\n"))
	f.Add([]byte{0x6c, 0x1b, 0x00, 0xff}, []byte("1 r 0 1 A G\n"), []byte("f a 0 0 1 1\n")) // sample-major
	f.Add([]byte{0x6c, 0x1b, 0x01}, []byte("1 r 0 1 A G\n"), []byte("f a 0 0 1 1\n"))       // truncated
	f.Add([]byte{0x00, 0x00, 0x01, 0x00}, []byte("1 r 0 1 A G\n"), []byte("f a 0 0 1 2\n")) // bad magic
	f.Add([]byte{0x6c, 0x1b, 0x01, 0b01}, []byte("1 r 0 1 A G\n"), []byte("f a 0 0 1 2\n")) // missing genotype
	f.Add([]byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, bed, bim, fam []byte) {
		mx, err := ReadBED(bytes.NewReader(bed), bytes.NewReader(bim), bytes.NewReader(fam))
		if err != nil {
			return
		}
		if mx == nil {
			t.Fatal("nil matrix with nil error")
		}
		if mx.SNPs() < 1 || mx.Samples() < 1 {
			t.Fatalf("accepted empty matrix: %dx%d", mx.SNPs(), mx.Samples())
		}
		for i := 0; i < mx.SNPs(); i++ {
			for j, g := range mx.Row(i) {
				if g > 2 {
					t.Fatalf("SNP %d sample %d: genotype %d out of range", i, j, g)
				}
			}
		}
		for j, p := range mx.Phenotypes() {
			if p > 1 {
				t.Fatalf("sample %d: phenotype %d out of range", j, p)
			}
		}
	})
}
