// Package dataset models case-control SNP datasets: the raw genotype
// matrix, the binarized bit-plane forms consumed by the detection
// kernels, GPU-oriented 32-bit word layouts, a synthetic data generator
// with planted higher-order interactions, and text/binary codecs.
//
// Terminology follows the paper: a dataset D has M SNPs and N samples;
// each entry is a genotype in {0, 1, 2} (homozygous major, heterozygous,
// homozygous minor) and each sample has a phenotype in {0 control,
// 1 case}.
package dataset

import (
	"encoding/binary"
	"fmt"
)

// Phenotype class indices. Class 0 is controls, class 1 is cases,
// matching the paper's D0|D1 notation.
const (
	Control = 0
	Case    = 1
)

// MaxSamples is the most samples a dataset may hold: every reader refuses
// more before it allocates by N, and score.New sizes no objective past it.
const MaxSamples = 1 << 24

// Matrix is the raw genotype matrix: M SNPs by N samples, SNP-major,
// plus one phenotype value per sample.
type Matrix struct {
	m, n int
	geno []uint8 // len m*n, geno[i*n+j] = genotype of SNP i for sample j
	phen []uint8 // len n
}

// NewMatrix returns a zeroed M-by-N genotype matrix (all genotypes 0,
// all samples controls).
//
// The panics of NewMatrix and the accessors below are caller bugs, like
// an index out of range; no dataset file reaches them. Every reader
// refuses a file with no SNP or no sample before it builds a matrix
// (ReadText, ReadBinary, ReadBED's .bim and .fam, ReadPED, ReadVCF's
// #CHROM and row checks; readRAW's header and sample count; a .tpack's
// header in internal/store), and stores only phenotypes it has checked
// to be 0 or 1 and genotypes it has checked to be 0, 1 or 2.
// TestReadersRefuseEmptyAndOutOfRange holds that.
func NewMatrix(m, n int) *Matrix {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("dataset: invalid dimensions %dx%d", m, n))
	}
	return &Matrix{m: m, n: n, geno: make([]uint8, m*n), phen: make([]uint8, n)}
}

// SNPs returns M, the number of SNPs.
func (mx *Matrix) SNPs() int { return mx.m }

// Samples returns N, the number of samples.
func (mx *Matrix) Samples() int { return mx.n }

// Geno returns the genotype of SNP i for sample j.
func (mx *Matrix) Geno(i, j int) uint8 {
	mx.checkIdx(i, j)
	return mx.geno[i*mx.n+j]
}

// SetGeno stores a genotype value (0, 1 or 2).
func (mx *Matrix) SetGeno(i, j int, g uint8) {
	mx.checkIdx(i, j)
	if g > 2 {
		panic(fmt.Sprintf("dataset: invalid genotype %d", g))
	}
	mx.geno[i*mx.n+j] = g
}

// Phen returns the phenotype (0 control, 1 case) of sample j.
func (mx *Matrix) Phen(j int) uint8 {
	if j < 0 || j >= mx.n {
		panic(fmt.Sprintf("dataset: sample %d out of range", j))
	}
	return mx.phen[j]
}

// SetPhen stores the phenotype of sample j.
func (mx *Matrix) SetPhen(j int, p uint8) {
	if j < 0 || j >= mx.n {
		panic(fmt.Sprintf("dataset: sample %d out of range", j))
	}
	if p > 1 {
		panic(fmt.Sprintf("dataset: invalid phenotype %d", p))
	}
	mx.phen[j] = p
}

func (mx *Matrix) checkIdx(i, j int) {
	if i < 0 || i >= mx.m || j < 0 || j >= mx.n {
		panic(fmt.Sprintf("dataset: index (%d,%d) out of range %dx%d", i, j, mx.m, mx.n))
	}
}

// ClassCounts returns the number of controls and cases.
func (mx *Matrix) ClassCounts() (controls, cases int) {
	for _, p := range mx.phen {
		if p == Case {
			cases++
		} else {
			controls++
		}
	}
	return mx.n - cases, cases
}

// GenotypeCounts returns, for SNP i, how many samples carry each
// genotype value.
func (mx *Matrix) GenotypeCounts(i int) (counts [3]int) {
	row := mx.geno[i*mx.n : (i+1)*mx.n]
	for _, g := range row {
		counts[g]++
	}
	return counts
}

// Row returns the genotype row of SNP i. The slice aliases the matrix.
func (mx *Matrix) Row(i int) []uint8 {
	mx.checkIdx(i, 0)
	return mx.geno[i*mx.n : (i+1)*mx.n]
}

// Phenotypes returns the phenotype slice. It aliases the matrix.
func (mx *Matrix) Phenotypes() []uint8 { return mx.phen }

// Validate checks all stored values are in range. Matrices built through
// the setters are always valid; Validate exists for data read from
// untrusted codecs or constructed via aliased rows.
func (mx *Matrix) Validate() error {
	// Eight genotypes to a test: a byte above 2 has a bit above its low
	// two set, or both of those. The byte loop starts at the first word
	// that fails, to name the first offender, or at the last few bytes.
	const low = 0x0101010101010101
	idx := 0
	for ; len(mx.geno)-idx >= 8; idx += 8 {
		if x := binary.LittleEndian.Uint64(mx.geno[idx:]); x&^(3*low)|x&(x>>1)&low != 0 {
			break
		}
	}
	for ; idx < len(mx.geno); idx++ {
		if g := mx.geno[idx]; g > 2 {
			return fmt.Errorf("dataset: SNP %d sample %d: invalid genotype %d", idx/mx.n, idx%mx.n, g)
		}
	}
	return mx.checkPhenotypes()
}

// checkPhenotypes is Validate's check of the phenotypes: each 0 or 1, and
// both classes present.
func (mx *Matrix) checkPhenotypes() error {
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
