package dataset

import (
	"fmt"
	"strings"
	"testing"
)

func TestReadPEDBasic(t *testing.T) {
	// 3 SNPs, 4 samples. SNP 0: alleles A (common) / G (minor).
	// SNP 1: C common, T minor. SNP 2: all same allele except one het.
	ped := `
FAM1 S1 0 0 1 1  A A  C C  G G
FAM1 S2 0 0 2 2  A G  C T  G G
FAM1 S3 0 0 1 2  G G  C C  G G
FAM1 S4 0 0 2 1  A A  T T  G T
`
	mx, err := ReadPED(strings.NewReader(ped))
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 3 || mx.Samples() != 4 {
		t.Fatalf("dims %dx%d", mx.SNPs(), mx.Samples())
	}
	// SNP 0: G appears 3/8 times -> minor. Genotypes: 0,1,2,0.
	wantG0 := []uint8{0, 1, 2, 0}
	for j, w := range wantG0 {
		if mx.Geno(0, j) != w {
			t.Errorf("SNP0 sample %d = %d, want %d", j, mx.Geno(0, j), w)
		}
	}
	// SNP 1: T appears 3/8 -> minor. Genotypes: 0,1,0,2.
	wantG1 := []uint8{0, 1, 0, 2}
	for j, w := range wantG1 {
		if mx.Geno(1, j) != w {
			t.Errorf("SNP1 sample %d = %d, want %d", j, mx.Geno(1, j), w)
		}
	}
	// SNP 2: T appears once -> minor. Genotypes: 0,0,0,1.
	wantG2 := []uint8{0, 0, 0, 1}
	for j, w := range wantG2 {
		if mx.Geno(2, j) != w {
			t.Errorf("SNP2 sample %d = %d, want %d", j, mx.Geno(2, j), w)
		}
	}
	// Phenotypes: column 6 (1=control, 2=case).
	wantP := []uint8{Control, Case, Case, Control}
	for j, w := range wantP {
		if mx.Phen(j) != w {
			t.Errorf("phen %d = %d, want %d", j, mx.Phen(j), w)
		}
	}
}

func TestReadPEDSkipsCommentsAndBlank(t *testing.T) {
	ped := "# header comment\n\nF S1 0 0 1 1 A A\nF S2 0 0 1 2 A G\n"
	mx, err := ReadPED(strings.NewReader(ped))
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 1 || mx.Samples() != 2 {
		t.Fatalf("dims %dx%d", mx.SNPs(), mx.Samples())
	}
}

func TestReadPEDErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"short line":        "F S1 0 0 1 1\n",
		"odd alleles":       "F S1 0 0 1 1 A A C\nF S2 0 0 1 2 A A C\n",
		"snp mismatch":      "F S1 0 0 1 1 A A\nF S2 0 0 1 2 A A C C\n",
		"bad phenotype":     "F S1 0 0 1 9 A A\n",
		"missing phenotype": "F S1 0 0 1 -9 A A\n",
		"missing allele":    "F S1 0 0 1 1 A 0\nF S2 0 0 1 2 A A\n",
		"triallelic":        "F S1 0 0 1 1 A C\nF S2 0 0 1 2 G G\n",
	}
	for name, in := range cases {
		if _, err := ReadPED(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadPEDRoundTripThroughGenerator(t *testing.T) {
	// Serialize a generated matrix to PED (hand-rolled here) and read
	// it back: minor-allele coding must reproduce the genotypes when
	// the minor allele is globally rarer.
	mx, err := Generate(GenConfig{SNPs: 6, Samples: 60, Seed: 50, MAFMin: 0.1, MAFMax: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for j := 0; j < mx.Samples(); j++ {
		p := "1"
		if mx.Phen(j) == Case {
			p = "2"
		}
		b.WriteString("F S 0 0 1 " + p)
		for i := 0; i < mx.SNPs(); i++ {
			switch mx.Geno(i, j) {
			case 0:
				b.WriteString(" A A")
			case 1:
				b.WriteString(" A G")
			case 2:
				b.WriteString(" G G")
			}
		}
		b.WriteByte('\n')
	}
	back, err := ReadPED(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(mx, back) {
		t.Error("PED round trip changed data")
	}
}

const rawHeader = "FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_G rs3_T\n"

func TestReadRAWBasic(t *testing.T) {
	raw := rawHeader +
		"F S1 0 0 1 1 0 1 2\n" +
		"\n" + // blank lines are skipped
		"F S2 0 0 2 2 2 0 1\n"
	mx, err := ReadRAW(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 3 || mx.Samples() != 2 {
		t.Fatalf("dims %dx%d", mx.SNPs(), mx.Samples())
	}
	want := [][]uint8{{0, 2}, {1, 0}, {2, 1}} // SNP-major
	for i := range want {
		for j, w := range want[i] {
			if mx.Geno(i, j) != w {
				t.Errorf("SNP %d sample %d = %d, want %d", i, j, mx.Geno(i, j), w)
			}
		}
	}
	if mx.Phen(0) != Control || mx.Phen(1) != Case {
		t.Errorf("phenotypes %d %d", mx.Phen(0), mx.Phen(1))
	}
}

// TestReadRAWErrors covers the loader's malformed-input branches; each
// case asserts the error names the actual defect, since a distributed
// submit surfaces these strings to remote users.
func TestReadRAWErrors(t *testing.T) {
	cases := map[string]struct {
		in      string
		wantErr string
	}{
		"empty":          {"", "no header"},
		"blank only":     {"\n\n", "no header"},
		"bad header":     {"CHROM POS A B C D E\nF S 0 0 1 1 0\n", "not a .raw header"},
		"headerless row": {"F S1 0 0 1 1 0 1 2\n", "not a .raw header"},
		"header too short": {
			"FID IID PAT MAT SEX PHENOTYPE\n", "not a .raw header"},
		"no samples": {rawHeader, "no samples"},
		"truncated line": {
			rawHeader + "F S1 0 0 1 1 0 1\n", "truncated"},
		"overlong line": {
			rawHeader + "F S1 0 0 1 1 0 1 2 0\n", "truncated or ragged"},
		"bad phenotype": {
			rawHeader + "F S1 0 0 1 0 0 1 2\n", "phenotype"},
		"missing genotype": {
			rawHeader + "F S1 0 0 1 1 0 NA 2\n", "missing genotype"},
		"non-biallelic code": {
			rawHeader + "F S1 0 0 1 1 0 3 2\n", "non-biallelic"},
		"fractional dosage": {
			rawHeader + "F S1 0 0 1 1 0 1.5 2\n", "non-biallelic"},
	}
	for name, tc := range cases {
		_, err := ReadRAW(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

func TestReadRAWRoundTripThroughGenerator(t *testing.T) {
	mx, err := Generate(GenConfig{SNPs: 5, Samples: 40, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("FID IID PAT MAT SEX PHENOTYPE")
	for i := 0; i < mx.SNPs(); i++ {
		fmt.Fprintf(&b, " rs%d_A", i)
	}
	b.WriteByte('\n')
	for j := 0; j < mx.Samples(); j++ {
		p := "1"
		if mx.Phen(j) == Case {
			p = "2"
		}
		fmt.Fprintf(&b, "F S%d 0 0 1 %s", j, p)
		for i := 0; i < mx.SNPs(); i++ {
			fmt.Fprintf(&b, " %d", mx.Geno(i, j))
		}
		b.WriteByte('\n')
	}
	back, err := ReadRAW(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(mx, back) {
		t.Error("RAW round trip changed data")
	}
}

const vcfHeader = `##fileformat=VCFv4.2
##source=test
#CHROM	POS	ID	REF	ALT	QUAL	FILTER	INFO	FORMAT	S1	S2	S3
`

func TestReadVCFBasic(t *testing.T) {
	vcf := vcfHeader +
		"1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0/0\t0/1\t1/1\n" +
		"1\t200\trs2\tC\tT\t.\tPASS\t.\tGT:DP\t1|1:12\t0|0:9\t0/1:30\n"
	mx, err := ReadVCF(strings.NewReader(vcf), []uint8{Control, Case, Control})
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 2 || mx.Samples() != 3 {
		t.Fatalf("dims %dx%d", mx.SNPs(), mx.Samples())
	}
	want := [][]uint8{{0, 1, 2}, {2, 0, 1}}
	for i := range want {
		for j, w := range want[i] {
			if mx.Geno(i, j) != w {
				t.Errorf("SNP %d sample %d = %d, want %d", i, j, mx.Geno(i, j), w)
			}
		}
	}
	if mx.Phen(1) != Case {
		t.Error("phenotype not applied")
	}
}

func TestReadVCFErrors(t *testing.T) {
	phen := []uint8{0, 1, 0}
	cases := map[string]string{
		"no rows":      vcfHeader,
		"data first":   "1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0\n",
		"col mismatch": vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/1\n",
		"multiallelic": vcfHeader + "1\t1\t.\tA\tG,T\t.\t.\t.\tGT\t0/0\t0/1\t1/1\n",
		"no GT format": vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tDP\t3\t4\t5\n",
		"missing gt":   vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tGT\t./.\t0/1\t1/1\n",
		"haploid gt":   vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tGT\t0\t0/1\t1/1\n",
		"weird allele": vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/2\t0/1\t1/1\n",
		"headerless":   "##meta only\n",
		"short header": "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0\n",
	}
	for name, in := range cases {
		if _, err := ReadVCF(strings.NewReader(in), phen); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Phenotype count mismatch and invalid phenotype value.
	good := vcfHeader + "1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/1\t1/1\n"
	if _, err := ReadVCF(strings.NewReader(good), []uint8{0, 1}); err == nil {
		t.Error("phenotype count mismatch accepted")
	}
	if _, err := ReadVCF(strings.NewReader(good), []uint8{0, 1, 9}); err == nil {
		t.Error("invalid phenotype accepted")
	}
}

// TestReadVCFRepeatedHeader: a second #CHROM header is refused with its
// line number, whichever way it changes the sample count. Sizing the
// matrix by the last header used to pad earlier rows with invented
// genotype 0s (wider) or cut later samples off them (narrower).
func TestReadVCFRepeatedHeader(t *testing.T) {
	const cols = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT"
	const row = "1\t1\t.\tA\tG\t.\t.\t.\tGT"
	for name, tc := range map[string]struct {
		in   string
		phen []uint8
	}{
		"wider":    {cols + "\tS1\tS2\n" + row + "\t1/1\t1/1\n" + cols + "\tS1\tS2\tS3\n" + row + "\t0/1\t0/1\t0/1\n", []uint8{0, 1, 0}},
		"narrower": {cols + "\tS1\tS2\tS3\n" + row + "\t1/1\t1/1\t1/1\n" + cols + "\tS1\tS2\n" + row + "\t0/1\t0/1\n", []uint8{0, 1}},
		"same":     {cols + "\tS1\tS2\n" + row + "\t1/1\t1/1\n" + cols + "\tS1\tS2\n" + row + "\t0/1\t0/1\n", []uint8{0, 1}},
	} {
		_, err := ReadVCF(strings.NewReader(tc.in), tc.phen)
		if err == nil || !strings.Contains(err.Error(), "vcf line 3: second #CHROM header") {
			t.Errorf("%s: error %v, want a refusal of the second header at line 3", name, err)
		}
	}
}

// TestReadPEDRefusesTooManySamples: a .ped of exactly the sample bound
// reads, and one sample line past it is refused, naming the line and the
// bound, before the matrix is allocated.
func TestReadPEDRefusesTooManySamples(t *testing.T) {
	ped := "F S1 0 0 1 1 A A\nF S2 0 0 1 2 A G\n\nF S3 0 0 1 1 G G\n"
	if mx, err := readPED(strings.NewReader(ped), 3); err != nil || mx.Samples() != 3 {
		t.Fatalf("3 samples at a bound of 3: %v", err)
	}
	_, err := readPED(strings.NewReader(ped), 2)
	if err == nil || !strings.Contains(err.Error(), "ped line 4: more than 2 samples") {
		t.Fatalf("3 samples at a bound of 2: err = %v", err)
	}
}

// TestReadVCFRefusesTooManySamples: a #CHROM header naming more samples
// than the bound is refused at the header, before a row is read.
func TestReadVCFRefusesTooManySamples(t *testing.T) {
	vcf := vcfHeader + "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0/0\t0/1\t1/1\n"
	if _, err := readVCF(strings.NewReader(vcf), []uint8{0, 1, 0}, 3); err != nil {
		t.Fatalf("3 samples at a bound of 3: %v", err)
	}
	_, err := readVCF(strings.NewReader(vcf), []uint8{0, 1, 0}, 2)
	if err == nil || !strings.Contains(err.Error(), "header names 3 samples, more than 2") {
		t.Fatalf("3 samples at a bound of 2: err = %v", err)
	}
}
