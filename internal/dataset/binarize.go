package dataset

import (
	"fmt"
	"slices"

	"trigene/internal/bitvec"
)

// Binarized is the paper's Figure 1 representation (approach V1): for
// every SNP, three bit planes over all N samples (one per genotype
// value) plus one phenotype bit vector. Plane g of SNP i has bit j set
// iff sample j carries genotype g at SNP i.
type Binarized struct {
	M, N   int
	Words  int // 64-bit words per plane
	planes []uint64
	Phen   *bitvec.Vector
}

// Binarize converts a genotype matrix into the three-plane form.
func Binarize(mx *Matrix) *Binarized { return Pack(mx).Binarize() }

// SNPPlanes is the three-plane form of some of a dataset's SNPs: what a
// call that names its SNPs up front — a permutation test of a few
// candidates — reads of the dataset, without a Binarized of all M SNPs
// behind it.
type SNPPlanes struct {
	M, N   int // the dataset's dimensions
	Words  int // 64-bit words per plane
	Phen   *bitvec.Vector
	snps   []int      // strictly increasing
	planes [][]uint64 // planes[k]: the three planes of snps[k], genotype-major
}

// distinctSNPs returns the SNPs of snps that a dataset of m SNPs has,
// sorted, each once.
func distinctSNPs(m int, snps []int) []int {
	out := make([]int, 0, len(snps))
	for _, v := range snps {
		if v >= 0 && v < m {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// BinarizeSNPs encodes the three planes of the given SNPs only — any
// order, repeats allowed, SNPs the matrix does not have left out — word
// for word the planes Binarize gives them.
func BinarizeSNPs(mx *Matrix, snps []int) *SNPPlanes { return Pack(mx).SNPPlanes(snps) }

// Select returns the planes of the given SNPs (as BinarizeSNPs takes
// them). They alias b's storage.
func (b *Binarized) Select(snps []int) *SNPPlanes {
	p := &SNPPlanes{M: b.M, N: b.N, Words: b.Words, Phen: b.Phen, snps: distinctSNPs(b.M, snps)}
	p.planes = make([][]uint64, len(p.snps))
	for k, snp := range p.snps {
		p.planes[k] = b.planes[snp*3*b.Words : (snp+1)*3*b.Words]
	}
	return p
}

// Plane returns the words of genotype plane g (0, 1 or 2) of the given
// SNP, nil if p does not hold the SNP. The slice aliases internal
// storage.
func (p *SNPPlanes) Plane(snp, g int) []uint64 {
	// A caller bug: the kernels and the permutation test ask only for
	// planes 0..2 of SNPs they were given.
	if g < 0 || g > 2 {
		panic(fmt.Sprintf("dataset: plane (%d,%d) out of range", snp, g))
	}
	k, ok := slices.BinarySearch(p.snps, snp)
	if !ok {
		return nil
	}
	return p.planes[k][g*p.Words : (g+1)*p.Words]
}

func (b *Binarized) planeWords(snp, g int) []uint64 {
	off := (snp*3 + g) * b.Words
	return b.planes[off : off+b.Words]
}

// Plane returns the words of genotype plane g (0, 1 or 2) of the given
// SNP. The slice aliases internal storage.
func (b *Binarized) Plane(snp, g int) []uint64 {
	// A caller bug: SNP indices come from combinations of [0, M).
	if snp < 0 || snp >= b.M || g < 0 || g > 2 {
		panic(fmt.Sprintf("dataset: plane (%d,%d) out of range", snp, g))
	}
	return b.planeWords(snp, g)
}

// Split is the phenotype-split two-plane representation used by
// approaches V2 and later: samples are partitioned into controls and
// cases, each SNP stores only genotype planes 0 and 1 per class, and
// the genotype-2 plane is inferred with NOR at kernel time.
//
// Padding: each class vector is padded to a whole number of 64-bit
// words with zero bits. A NOR over zero padding yields ones, which
// inflates exactly the (2,2,2) frequency cell by Pad[class]; the
// contingency builders subtract that known correction.
type Split struct {
	M      int
	N      [2]int // samples per class
	Words  [2]int // 64-bit words per class plane
	Pad    [2]int // padding bits per class (= Words*64 - N)
	planes [2][]uint64
}

// SplitBinarize converts a genotype matrix into the phenotype-split
// two-plane form. Sample order within each class follows the original
// sample order.
func SplitBinarize(mx *Matrix) *Split { return Pack(mx).Split() }

// ClassPlaneData exposes one class's full plane storage in
// (snp*2+g)*Words layout. The slice aliases internal storage; the
// kernels read it.
func (s *Split) ClassPlaneData(class int) []uint64 { return s.planes[class] }

func (s *Split) plane(class, snp, g int) []uint64 {
	w := s.Words[class]
	off := (snp*2 + g) * w
	return s.planes[class][off : off+w]
}

// Plane returns the words of genotype plane g (0 or 1) of the given SNP
// for the given class. The slice aliases internal storage.
func (s *Split) Plane(class, snp, g int) []uint64 {
	// A caller bug: SNP indices come from combinations of [0, M), and
	// classes and planes are loop counters of the kernels.
	if class < 0 || class > 1 || snp < 0 || snp >= s.M || g < 0 || g > 1 {
		panic(fmt.Sprintf("dataset: split plane (%d,%d,%d) out of range", class, snp, g))
	}
	return s.plane(class, snp, g)
}

// PlaneRange returns words [w0, w1) of plane g of the given SNP/class.
// The blocked kernels use it to walk sample tiles.
func (s *Split) PlaneRange(class, snp, g, w0, w1 int) []uint64 {
	p := s.Plane(class, snp, g)
	return p[w0:w1]
}

// BytesPerCombination returns how many bytes of plane data one
// combination evaluation streams for this dataset (both classes, both
// stored planes, three SNPs). Used for arithmetic-intensity accounting.
func (s *Split) BytesPerCombination() int {
	return (s.Words[Control] + s.Words[Case]) * 2 * 3 * 8
}
