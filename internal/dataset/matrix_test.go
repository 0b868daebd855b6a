package dataset

import (
	"strings"
	"testing"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	mx := NewMatrix(4, 10)
	if mx.SNPs() != 4 || mx.Samples() != 10 {
		t.Fatalf("dims = %dx%d, want 4x10", mx.SNPs(), mx.Samples())
	}
	mx.SetGeno(2, 5, 2)
	mx.SetGeno(0, 0, 1)
	if mx.Geno(2, 5) != 2 || mx.Geno(0, 0) != 1 || mx.Geno(3, 9) != 0 {
		t.Error("genotype round trip failed")
	}
	mx.SetPhen(7, Case)
	if mx.Phen(7) != Case || mx.Phen(0) != Control {
		t.Error("phenotype round trip failed")
	}
	controls, cases := mx.ClassCounts()
	if controls != 9 || cases != 1 {
		t.Errorf("ClassCounts = (%d,%d), want (9,1)", controls, cases)
	}
}

func TestMatrixPanics(t *testing.T) {
	mx := NewMatrix(2, 3)
	for name, f := range map[string]func(){
		"bad dims":       func() { NewMatrix(0, 5) },
		"geno range":     func() { mx.Geno(2, 0) },
		"geno value":     func() { mx.SetGeno(0, 0, 3) },
		"phen range":     func() { mx.Phen(3) },
		"phen value":     func() { mx.SetPhen(0, 2) },
		"neg sample":     func() { mx.Phen(-1) },
		"neg snp":        func() { mx.Geno(-1, 0) },
		"set geno range": func() { mx.SetGeno(0, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGenotypeCounts(t *testing.T) {
	mx := NewMatrix(1, 6)
	for j, g := range []uint8{0, 1, 2, 2, 1, 2} {
		mx.SetGeno(0, j, g)
	}
	counts := mx.GenotypeCounts(0)
	if counts != [3]int{1, 2, 3} {
		t.Errorf("GenotypeCounts = %v, want [1 2 3]", counts)
	}
}

func TestRowAliases(t *testing.T) {
	mx := NewMatrix(2, 4)
	row := mx.Row(1)
	row[2] = 2
	if mx.Geno(1, 2) != 2 {
		t.Error("Row should alias matrix storage")
	}
}

func TestValidate(t *testing.T) {
	mx := NewMatrix(2, 4)
	mx.SetPhen(0, Case)
	if err := mx.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}

	// Corrupt through the aliasing Row accessor.
	mx.Row(0)[1] = 7
	if err := mx.Validate(); err == nil {
		t.Error("invalid genotype not caught")
	}
	mx.Row(0)[1] = 0

	mx.Phenotypes()[0] = 9
	if err := mx.Validate(); err == nil {
		t.Error("invalid phenotype not caught")
	}
	mx.Phenotypes()[0] = 0

	// Single class is degenerate.
	if err := mx.Validate(); err == nil {
		t.Error("single-class dataset not caught")
	}
}

// TestReadersRefuseEmptyAndOutOfRange: no dataset file reaches the
// Matrix panics (NewMatrix of an empty shape, SetPhen of a phenotype
// above 1, a genotype above 2). Each reader refuses such a file with an
// error, never a panic.
func TestReadersRefuseEmptyAndOutOfRange(t *testing.T) {
	const rawHeader = "FID IID PAT MAT SEX PHENOTYPE rs1\n"
	const bim = "1 rs1 0 1 A G\n"
	const fam = "f a 0 0 1 1\n"
	binary := func(m, n byte) string { return "TGB1" + string([]byte{m, 0, 0, 0, n, 0, 0, 0}) + "\x00" }
	vcf := func(samples string) string {
		return "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT" + samples + "\n1\t1\trs1\tA\tG\t.\t.\t.\tGT\t0/1\n"
	}
	cases := map[string]func() (*Matrix, error){
		"text, no SNPs":      func() (*Matrix, error) { return ReadText(strings.NewReader("#trigene v1 0 2\n01\n")) },
		"text, no samples":   func() (*Matrix, error) { return ReadText(strings.NewReader("#trigene v1 1 0\n\n\n")) },
		"text, genotype 3":   func() (*Matrix, error) { return ReadText(strings.NewReader("#trigene v1 1 2\n03\n01\n")) },
		"text, phenotype 2":  func() (*Matrix, error) { return ReadText(strings.NewReader("#trigene v1 1 2\n01\n02\n")) },
		"binary, no SNPs":    func() (*Matrix, error) { return ReadBinary(strings.NewReader(binary(0, 2))) },
		"binary, no samples": func() (*Matrix, error) { return ReadBinary(strings.NewReader(binary(1, 0))) },
		"binary, genotype 3": func() (*Matrix, error) {
			return ReadBinary(strings.NewReader("TGB1\x01\x00\x00\x00\x01\x00\x00\x00\x03\x01"))
		},
		"raw, no samples": func() (*Matrix, error) { return ReadRAW(strings.NewReader(rawHeader)) },
		"raw, no SNPs": func() (*Matrix, error) {
			return ReadRAW(strings.NewReader("FID IID PAT MAT SEX PHENOTYPE\nf i 0 0 1 1\n"))
		},
		"raw, phenotype 3": func() (*Matrix, error) { return ReadRAW(strings.NewReader(rawHeader + "f i 0 0 1 3 0\n")) },
		"raw, genotype 3":  func() (*Matrix, error) { return ReadRAW(strings.NewReader(rawHeader + "f i 0 0 1 1 3\n")) },
		"bed, no SNPs": func() (*Matrix, error) {
			return ReadBED(strings.NewReader("\x6c\x1b\x01"), strings.NewReader(""), strings.NewReader(fam))
		},
		"bed, no samples": func() (*Matrix, error) {
			return ReadBED(strings.NewReader("\x6c\x1b\x01\x00"), strings.NewReader(bim), strings.NewReader(""))
		},
		"bed, phenotype 3": func() (*Matrix, error) {
			return ReadBED(strings.NewReader("\x6c\x1b\x01\x00"), strings.NewReader(bim), strings.NewReader("f a 0 0 1 3\n"))
		},
		"ped, empty":       func() (*Matrix, error) { return ReadPED(strings.NewReader("")) },
		"ped, no SNPs":     func() (*Matrix, error) { return ReadPED(strings.NewReader("f a 0 0 1 1\n")) },
		"ped, phenotype 3": func() (*Matrix, error) { return ReadPED(strings.NewReader("f a 0 0 1 3 A G\n")) },
		"vcf, no samples":  func() (*Matrix, error) { return ReadVCF(strings.NewReader(vcf("")), nil) },
		"vcf, no rows": func() (*Matrix, error) {
			return ReadVCF(strings.NewReader("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\ts1\n"), []uint8{1})
		},
		"vcf, phenotype 2":     func() (*Matrix, error) { return ReadVCF(strings.NewReader(vcf("\ts1")), []uint8{2}) },
		"vcf, phenotype short": func() (*Matrix, error) { return ReadVCF(strings.NewReader(vcf("\ts1")), nil) },
	}
	for name, read := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if mx, err := read(); err == nil {
				t.Errorf("%s: accepted as a %dx%d matrix", name, mx.SNPs(), mx.Samples())
			}
		}()
	}
}
