package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// encodeBED packs per-SNP dosage rows into a SNP-major .bed blob.
// dosage 2 -> code 00 (hom A1), 1 -> 10 (het), 0 -> 11 (hom A2);
// code 1 in a row injects the missing marker 01 for error tests.
func encodeBED(rows [][]uint8, missing map[[2]int]bool) []byte {
	out := []byte{0x6c, 0x1b, 0x01}
	for snp, row := range rows {
		block := make([]byte, (len(row)+3)/4)
		for j, g := range row {
			var code byte
			switch g {
			case 2:
				code = 0b00
			case 1:
				code = 0b10
			case 0:
				code = 0b11
			}
			if missing[[2]int{snp, j}] {
				code = 0b01
			}
			block[j/4] |= code << uint(2*(j%4))
		}
		out = append(out, block...)
	}
	return out
}

func bimLines(m int) string {
	var sb strings.Builder
	for i := 0; i < m; i++ {
		sb.WriteString("1 rs")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" 0 100 A G\n")
	}
	return sb.String()
}

func famLines(phen []string) string {
	var sb strings.Builder
	for i, p := range phen {
		sb.WriteString("f i")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" 0 0 1 ")
		sb.WriteString(p)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestReadBED(t *testing.T) {
	rows := [][]uint8{
		{0, 1, 2, 1, 0},
		{2, 2, 0, 1, 1},
		{1, 0, 1, 2, 0},
	}
	phen := []string{"1", "2", "2", "1", "2"}
	mx, err := ReadBED(
		bytes.NewReader(encodeBED(rows, nil)),
		strings.NewReader(bimLines(3)),
		strings.NewReader(famLines(phen)),
	)
	if err != nil {
		t.Fatalf("ReadBED: %v", err)
	}
	if mx.SNPs() != 3 || mx.Samples() != 5 {
		t.Fatalf("got %dx%d, want 3x5", mx.SNPs(), mx.Samples())
	}
	for snp, want := range rows {
		if got := mx.Row(snp); !bytes.Equal(got, want) {
			t.Errorf("SNP %d: got %v, want %v", snp, got, want)
		}
	}
	wantPhen := []uint8{Control, Case, Case, Control, Case}
	if got := mx.Phenotypes(); !bytes.Equal(got, wantPhen) {
		t.Errorf("phenotypes: got %v, want %v", got, wantPhen)
	}
}

func TestReadBEDErrors(t *testing.T) {
	rows := [][]uint8{{0, 1, 2, 1, 0}, {2, 2, 0, 1, 1}}
	good := encodeBED(rows, nil)
	bim2, fam5 := bimLines(2), famLines([]string{"1", "2", "2", "1", "2"})

	cases := []struct {
		name          string
		bed           []byte
		bim, fam      string
		wantSubstring string
	}{
		{
			name: "bad magic",
			bed:  append([]byte{0x6c, 0x1c, 0x01}, good[3:]...),
			bim:  bim2, fam: fam5,
			wantSubstring: "bad magic",
		},
		{
			name: "sample-major mode",
			bed:  append([]byte{0x6c, 0x1b, 0x00}, good[3:]...),
			bim:  bim2, fam: fam5,
			wantSubstring: "sample-major layout (mode 0x00) unsupported",
		},
		{
			name: "truncated block",
			bed:  good[:len(good)-1],
			bim:  bim2, fam: fam5,
			wantSubstring: "truncated genotype block for SNP 1",
		},
		{
			name:          "sample-count mismatch leaves trailing bytes",
			bed:           good,
			bim:           bim2,
			fam:           famLines([]string{"1", "2", "1"}), // 3 samples -> 1-byte blocks
			wantSubstring: "trailing bytes after 2 SNPs (sample count mismatch",
		},
		{
			name: "missing genotype",
			bed:  encodeBED(rows, map[[2]int]bool{{1, 3}: true}),
			bim:  bim2, fam: fam5,
			wantSubstring: "missing genotype at SNP 1 sample 3",
		},
		{
			name:          "bad fam phenotype",
			bed:           good,
			bim:           bim2,
			fam:           famLines([]string{"1", "2", "9", "1", "2"}),
			wantSubstring: `unsupported phenotype "9"`,
		},
		{
			name:          "ragged bim",
			bed:           good,
			bim:           "1 rs0 0 100 A G\n1 rs1 0 100 A\n",
			fam:           fam5,
			wantSubstring: "bim line 2: 5 fields, want 6",
		},
		{
			name:          "empty fam",
			bed:           good,
			bim:           bim2,
			fam:           "",
			wantSubstring: "fam has no samples",
		},
		{
			name:          "empty bim",
			bed:           good,
			bim:           "",
			fam:           fam5,
			wantSubstring: "bim has no SNPs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBED(bytes.NewReader(tc.bed), strings.NewReader(tc.bim), strings.NewReader(tc.fam))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantSubstring)
			}
			if !strings.Contains(err.Error(), tc.wantSubstring) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSubstring)
			}
		})
	}
}

// TestReadBEDPadding checks that nonzero padding bits in the last
// byte of a block (beyond sample N-1) are ignored, matching plink's
// reader rather than its writer.
func TestReadBEDPadding(t *testing.T) {
	rows := [][]uint8{{2, 0, 1}}
	bed := encodeBED(rows, nil)
	bed[len(bed)-1] |= 0b01 << 6 // junk in the padding slot
	mx, err := ReadBED(
		bytes.NewReader(bed),
		strings.NewReader(bimLines(1)),
		strings.NewReader(famLines([]string{"1", "2", "1"})),
	)
	if err != nil {
		t.Fatalf("ReadBED with padding bits: %v", err)
	}
	if got := mx.Row(0); !bytes.Equal(got, rows[0]) {
		t.Fatalf("got %v, want %v", got, rows[0])
	}
}

// TestReadBEDRefusesTooManySamples: a .fam of more samples than the bound
// is refused, naming the line and the bound, before the .bed is read or
// the matrix allocated.
func TestReadBEDRefusesTooManySamples(t *testing.T) {
	rows := [][]uint8{{0, 1, 2, 1, 0}}
	fam := famLines([]string{"1", "2", "2", "1", "2"})
	if _, err := readBED(bytes.NewReader(encodeBED(rows, nil)), strings.NewReader(bimLines(1)), strings.NewReader(fam), 5); err != nil {
		t.Fatalf("5 samples at a bound of 5: %v", err)
	}
	_, err := readBED(bytes.NewReader(nil), strings.NewReader(bimLines(1)), strings.NewReader(fam), 4)
	if err == nil || !strings.Contains(err.Error(), "fam line 5: more than 4 samples") {
		t.Fatalf("5 samples at a bound of 4: err = %v", err)
	}
}
