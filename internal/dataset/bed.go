package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// PLINK 1 binary fileset support: the .bed genotype blob plus its
// .bim (one line per SNP) and .fam (one line per sample) sidecars.
// Like the text importers this is strict — missing genotypes,
// truncated blocks and length mismatches between the three files are
// rejected rather than imputed.

// IsBED reports whether magic opens a PLINK 1 SNP-major .bed file:
// the two magic bytes 0x6c 0x1b followed by the mode byte 0x01.
func IsBED(magic []byte) bool {
	return len(magic) >= 3 && magic[0] == 0x6c && magic[1] == 0x1b && magic[2] == 0x01
}

// ReadBED parses a PLINK 1 binary fileset from its three streams. The
// .fam fixes the sample count and phenotypes (column 6, 1 = control,
// 2 = case), the .bim fixes the SNP count, and the .bed carries one
// ceil(N/4)-byte block per SNP in variant-major order. Each byte packs
// four samples, two bits each, low bits first: 00 = homozygous A1
// (dosage 2, A1 is PLINK's minor allele), 10 = heterozygous (1),
// 11 = homozygous A2 (0), 01 = missing (rejected). Sample-major files
// (mode byte 0x00) and trailing bytes — the signature of a .fam that
// disagrees with the .bed's sample count — are errors.
func ReadBED(bed, bim, fam io.Reader) (*Matrix, error) { return readBED(bed, bim, fam, MaxSamples) }

// readBED is ReadBED refusing a .fam of more than maxSamples samples;
// tests lower the bound.
func readBED(bed, bim, fam io.Reader, maxSamples int) (*Matrix, error) {
	phen, err := readFAM(fam, maxSamples)
	if err != nil {
		return nil, err
	}
	m, err := readBIM(bim)
	if err != nil {
		return nil, err
	}

	br := bufio.NewReader(bed)
	var header [3]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("dataset: bed: reading magic: %w", err)
	}
	if header[0] != 0x6c || header[1] != 0x1b {
		return nil, fmt.Errorf("dataset: bed: bad magic %#02x %#02x (want 0x6c 0x1b)", header[0], header[1])
	}
	switch header[2] {
	case 0x01:
		// SNP-major, the only layout modern plink writes.
	case 0x00:
		return nil, fmt.Errorf("dataset: bed: sample-major layout (mode 0x00) unsupported; re-export with a modern plink")
	default:
		return nil, fmt.Errorf("dataset: bed: unknown mode byte %#02x (want 0x01)", header[2])
	}

	n := len(phen)
	mx := NewMatrix(m, n)
	for j, p := range phen {
		mx.SetPhen(j, p)
	}
	block := make([]byte, (n+3)/4)
	for snp := 0; snp < m; snp++ {
		if _, err := io.ReadFull(br, block); err != nil {
			return nil, fmt.Errorf("dataset: bed: truncated genotype block for SNP %d (is the .bim or .fam from a different fileset?): %w", snp, err)
		}
		dst := mx.Row(snp)
		for j := 0; j < n; j++ {
			switch block[j/4] >> uint(2*(j%4)) & 3 {
			case 0b00:
				dst[j] = 2
			case 0b10:
				dst[j] = 1
			case 0b11:
				dst[j] = 0
			default: // 0b01
				return nil, fmt.Errorf("dataset: bed: missing genotype at SNP %d sample %d", snp, j)
			}
		}
	}
	if extra, _ := io.Copy(io.Discard, br); extra > 0 {
		return nil, fmt.Errorf("dataset: bed: %d trailing bytes after %d SNPs (sample count mismatch with the .fam?)", extra, m)
	}
	return mx, nil
}

// readFAM parses the .fam sidecar: one sample per line, six columns
// (FID IID PAT MAT SEX PHENO), phenotype 1 = control / 2 = case, at most
// maxSamples of them.
func readFAM(r io.Reader, maxSamples int) ([]uint8, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var phen []uint8
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if len(phen) == maxSamples {
			return nil, fmt.Errorf("dataset: bed: fam line %d: more than %d samples", line, maxSamples)
		}
		fields := strings.Fields(text)
		if len(fields) < 6 {
			return nil, fmt.Errorf("dataset: bed: fam line %d: %d fields, want 6 (FID IID PAT MAT SEX PHENO)", line, len(fields))
		}
		switch fields[5] {
		case "1":
			phen = append(phen, Control)
		case "2":
			phen = append(phen, Case)
		default:
			return nil, fmt.Errorf("dataset: bed: fam line %d: unsupported phenotype %q (want 1 or 2)", line, fields[5])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: bed: reading fam: %w", err)
	}
	if len(phen) == 0 {
		return nil, fmt.Errorf("dataset: bed: fam has no samples")
	}
	return phen, nil
}

// readBIM counts and validates the .bim sidecar: one SNP per line,
// six columns (CHR ID CM POS A1 A2).
func readBIM(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	m := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if got := len(strings.Fields(text)); got != 6 {
			return 0, fmt.Errorf("dataset: bed: bim line %d: %d fields, want 6 (CHR ID CM POS A1 A2)", line, got)
		}
		m++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("dataset: bed: reading bim: %w", err)
	}
	if m == 0 {
		return 0, fmt.Errorf("dataset: bed: bim has no SNPs")
	}
	return m, nil
}
