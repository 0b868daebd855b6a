package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Importers for the interchange formats GWAS toolchains actually
// emit: PLINK's classic .ped (samples in rows, two allele columns per
// SNP, phenotype column 6), PLINK's additive-recode .raw (samples in
// rows, one 0/1/2 dosage column per SNP behind a header), and a VCF
// subset (bi-allelic sites with a leading GT field). All are strict:
// missing genotypes, truncated rows and non-biallelic codes are
// rejected rather than silently imputed, since downstream counting
// assumes complete data.

// ReadPED parses a PLINK .ped file. Each line holds
//
//	FID IID PAT MAT SEX PHENO  a1 b1  a2 b2  ...  aM bM
//
// with phenotype 1 = control, 2 = case, and alleles as single tokens
// (ACGT or 1/2 coding; "0" marks a missing allele and is rejected).
// The minor allele of each SNP is determined from the data (the rarer
// allele; ties break toward the lexicographically larger token), and
// genotype values are minor-allele counts.
func ReadPED(r io.Reader) (*Matrix, error) { return readPED(r, MaxSamples) }

// readPED is ReadPED refusing more than maxSamples sample lines; tests
// lower the bound.
func readPED(r io.Reader, maxSamples int) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var rows [][]string // allele tokens per sample
	var phen []uint8
	m := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if len(rows) == maxSamples {
			return nil, fmt.Errorf("dataset: ped line %d: more than %d samples", line, maxSamples)
		}
		fields := strings.Fields(text)
		if len(fields) < 8 {
			return nil, fmt.Errorf("dataset: ped line %d: %d fields, need at least 8", line, len(fields))
		}
		alleles := fields[6:]
		if len(alleles)%2 != 0 {
			return nil, fmt.Errorf("dataset: ped line %d: odd allele count %d", line, len(alleles))
		}
		if m == -1 {
			m = len(alleles) / 2
		} else if len(alleles)/2 != m {
			return nil, fmt.Errorf("dataset: ped line %d: %d SNPs, want %d", line, len(alleles)/2, m)
		}
		switch fields[5] {
		case "1":
			phen = append(phen, Control)
		case "2":
			phen = append(phen, Case)
		default:
			return nil, fmt.Errorf("dataset: ped line %d: unsupported phenotype %q (want 1 or 2)", line, fields[5])
		}
		for i, a := range alleles {
			if a == "0" {
				return nil, fmt.Errorf("dataset: ped line %d: missing allele at SNP %d", line, i/2)
			}
		}
		rows = append(rows, alleles)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading ped: %w", err)
	}
	if len(rows) == 0 || m <= 0 {
		return nil, fmt.Errorf("dataset: ped input has no samples")
	}

	n := len(rows)
	mx := NewMatrix(m, n)
	for j, p := range phen {
		mx.SetPhen(j, p)
	}
	for snp := 0; snp < m; snp++ {
		minor, err := minorAllele(rows, snp)
		if err != nil {
			return nil, err
		}
		dst := mx.Row(snp)
		for j, row := range rows {
			g := uint8(0)
			if row[2*snp] == minor {
				g++
			}
			if row[2*snp+1] == minor {
				g++
			}
			dst[j] = g
		}
	}
	return mx, nil
}

// minorAllele finds the rarer of a SNP's two alleles across samples.
func minorAllele(rows [][]string, snp int) (string, error) {
	counts := map[string]int{}
	for _, row := range rows {
		counts[row[2*snp]]++
		counts[row[2*snp+1]]++
	}
	if len(counts) > 2 {
		return "", fmt.Errorf("dataset: ped SNP %d has %d alleles, want at most 2", snp, len(counts))
	}
	minor, best := "", int(^uint(0)>>1)
	for a, c := range counts {
		if c < best || (c == best && a > minor) {
			minor, best = a, c
		}
	}
	return minor, nil
}

// ReadRAW parses a PLINK .raw file (`plink --recode A`): a header line
//
//	FID IID PAT MAT SEX PHENOTYPE snp1_A snp2_G ... snpM_T
//
// followed by one line per sample whose genotype columns are
// minor-allele dosages. Phenotype is 1 = control / 2 = case. The
// format is strict: every sample line must carry exactly one code per
// header SNP (a truncated line is an error, not a short sample), codes
// must be the biallelic dosages 0, 1 or 2, and the missing marker NA
// is rejected. Blank lines are skipped, a line of 64 MiB or more is
// refused, and the first error reported is that of the lowest bad line.
//
// Fields are separated by ASCII white space (space, tab, CR, VT, FF)
// only: a line holding any other Unicode white space (U+00A0, U+0085,
// ...) is refused as ragged rather than split there.
//
// The input is read in bounded blocks that up to GOMAXPROCS goroutines
// tokenise (see raw.go); memory beyond the Matrix is a few blocks plus
// half a byte per genotype. ReadRAW is ReadRAWPacked and a decode.
func ReadRAW(r io.Reader) (*Matrix, error) {
	p, err := ReadRAWPacked(r)
	if err != nil {
		return nil, err
	}
	return p.Matrix(), nil
}

// ReadRAWPacked reads a .raw file as ReadRAW does into the dataset's
// packed sections, without building the Matrix: memory beyond them is a
// few blocks plus a quarter byte per genotype.
func ReadRAWPacked(r io.Reader) (*Packed, error) {
	return readRAW(r, rawBlockSize, rawMaxLine)
}

// ReadVCF parses a bi-allelic VCF subset: meta lines (##...) are
// skipped, the one #CHROM header fixes the sample count (a second is
// refused: rows on either side of it would disagree about the columns),
// and each data row contributes one SNP whose genotypes are ALT-allele
// counts taken from the leading GT subfield (phased or unphased). phen
// supplies the phenotype per sample in header order, since VCF carries
// no case-control status.
func ReadVCF(r io.Reader, phen []uint8) (*Matrix, error) { return readVCF(r, phen, MaxSamples) }

// readVCF is ReadVCF refusing a header of more than maxSamples samples;
// tests lower the bound.
func readVCF(r io.Reader, phen []uint8, maxSamples int) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var samples int
	var rows [][]uint8
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "##"), strings.TrimSpace(text) == "":
			continue
		case strings.HasPrefix(text, "#CHROM"):
			fields := strings.Fields(text)
			if len(fields) < 10 {
				return nil, fmt.Errorf("dataset: vcf line %d: header has no samples", line)
			}
			if samples != 0 {
				return nil, fmt.Errorf("dataset: vcf line %d: second #CHROM header (%d samples; the first named %d)", line, len(fields)-9, samples)
			}
			if len(fields)-9 > maxSamples {
				return nil, fmt.Errorf("dataset: vcf line %d: header names %d samples, more than %d", line, len(fields)-9, maxSamples)
			}
			samples = len(fields) - 9
			continue
		}
		if samples == 0 {
			return nil, fmt.Errorf("dataset: vcf line %d: data before #CHROM header", line)
		}
		fields := strings.Fields(text)
		if len(fields) != 9+samples {
			return nil, fmt.Errorf("dataset: vcf line %d: %d columns, want %d", line, len(fields), 9+samples)
		}
		if strings.Contains(fields[4], ",") {
			return nil, fmt.Errorf("dataset: vcf line %d: multi-allelic site %q unsupported", line, fields[4])
		}
		if !strings.HasPrefix(fields[8], "GT") {
			return nil, fmt.Errorf("dataset: vcf line %d: FORMAT %q must lead with GT", line, fields[8])
		}
		row := make([]uint8, samples)
		for s := 0; s < samples; s++ {
			gt := fields[9+s]
			if i := strings.IndexByte(gt, ':'); i >= 0 {
				gt = gt[:i]
			}
			g, err := parseGT(gt)
			if err != nil {
				return nil, fmt.Errorf("dataset: vcf line %d sample %d: %w", line, s, err)
			}
			row[s] = g
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading vcf: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: vcf input has no variant rows")
	}
	if len(phen) != samples {
		return nil, fmt.Errorf("dataset: %d phenotypes for %d VCF samples", len(phen), samples)
	}

	mx := NewMatrix(len(rows), samples)
	for j, p := range phen {
		if p > 1 {
			return nil, fmt.Errorf("dataset: invalid phenotype %d for sample %d", p, j)
		}
		mx.SetPhen(j, p)
	}
	for snp, row := range rows {
		copy(mx.Row(snp), row)
	}
	return mx, nil
}

// parseGT converts a diploid GT subfield ("0/1", "1|1", ...) into an
// ALT-allele count.
func parseGT(gt string) (uint8, error) {
	sep := strings.IndexAny(gt, "/|")
	if sep < 0 {
		return 0, fmt.Errorf("haploid or malformed GT %q", gt)
	}
	a, b := gt[:sep], gt[sep+1:]
	count := uint8(0)
	for _, h := range []string{a, b} {
		switch h {
		case "0":
		case "1":
			count++
		case ".":
			return 0, fmt.Errorf("missing GT %q", gt)
		default:
			return 0, fmt.Errorf("unsupported allele %q in GT %q", h, gt)
		}
	}
	return count, nil
}
