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
	if g < 0 || g > 2 {
		panic(fmt.Sprintf("dataset: plane (%d,%d) out of range", snp, g))
	}
	k, ok := slices.BinarySearch(p.snps, snp)
	if !ok {
		return nil
	}
	return p.planes[k][g*p.Words : (g+1)*p.Words]
}

// PlaneOverlapError reports pre-built genotype planes in which one
// sample carries two genotypes of the same SNP. The kernels derive the
// unstored genotype (and the fused kernel nine of its 27 cells) from
// the planes of a SNP being disjoint, so such planes are refused at
// load.
type PlaneOverlapError struct {
	// Encoding is "binarized" or "split"; Class is the phenotype class
	// of a split plane (0 for binarized).
	Encoding string
	Class    int
	// SNP and Word locate the first overlap found.
	SNP, Word int
}

func (e *PlaneOverlapError) Error() string {
	planes := e.Encoding
	if planes == "split" {
		planes = fmt.Sprintf("split class-%d", e.Class)
	}
	return fmt.Sprintf("dataset: %s planes of SNP %d overlap in word %d: a sample carries two genotypes", planes, e.SNP, e.Word)
}

// BinarizedFromPlanes wraps pre-built plane storage (the packed
// on-disk encoding) as a Binarized without recomputing it. planes must
// hold m*3*WordsFor(n) words in (snp*3+g)*Words layout with zero tail
// bits and the three planes of a SNP pairwise disjoint, and phen must
// be an n-bit vector; the slices are adopted, not copied.
func BinarizedFromPlanes(m, n int, planes []uint64, phen *bitvec.Vector) (*Binarized, error) {
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("dataset: invalid dimensions %dx%d", m, n)
	}
	w := bitvec.WordsFor(n)
	if len(planes) != m*3*w {
		return nil, fmt.Errorf("dataset: binarized planes hold %d words, want %d", len(planes), m*3*w)
	}
	if phen.Len() != n {
		return nil, fmt.Errorf("dataset: phenotype vector holds %d bits, want %d", phen.Len(), n)
	}
	if mask := bitvec.TailMask(n); mask != ^uint64(0) {
		for p := 0; p < m*3; p++ {
			if planes[(p+1)*w-1]&^mask != 0 {
				return nil, fmt.Errorf("dataset: binarized plane %d has nonzero tail bits", p)
			}
		}
	}
	for i := 0; i < m; i++ {
		g0, g1, g2 := planes[i*3*w:(i*3+1)*w], planes[(i*3+1)*w:(i*3+2)*w], planes[(i*3+2)*w:(i*3+3)*w]
		for k, a := range g0 {
			if b, c := g1[k], g2[k]; a&b|(a|b)&c != 0 {
				return nil, &PlaneOverlapError{Encoding: "binarized", SNP: i, Word: k}
			}
		}
	}
	return &Binarized{M: m, N: n, Words: w, planes: planes, Phen: phen}, nil
}

// PlaneData exposes the full plane storage in (snp*3+g)*Words layout.
// The slice aliases internal storage; the packed codec serializes it.
func (b *Binarized) PlaneData() []uint64 { return b.planes }

func (b *Binarized) planeWords(snp, g int) []uint64 {
	off := (snp*3 + g) * b.Words
	return b.planes[off : off+b.Words]
}

// Plane returns the words of genotype plane g (0, 1 or 2) of the given
// SNP. The slice aliases internal storage.
func (b *Binarized) Plane(snp, g int) []uint64 {
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

// SplitFromPlanes wraps pre-built per-class plane storage (the packed
// on-disk encoding) as a Split without recomputing it. planes[c] must
// hold m*2*WordsFor(n[c]) words in (snp*2+g)*Words layout with zero
// tail bits and the two planes of a SNP disjoint; the slices are
// adopted, not copied.
func SplitFromPlanes(m int, n [2]int, planes [2][]uint64) (*Split, error) {
	if m <= 0 || n[Control] < 0 || n[Case] < 0 {
		return nil, fmt.Errorf("dataset: invalid split dimensions m=%d n=%v", m, n)
	}
	s := &Split{M: m, N: n}
	for c := 0; c < 2; c++ {
		s.Words[c] = bitvec.WordsFor(n[c])
		s.Pad[c] = s.Words[c]*bitvec.WordBits - n[c]
		if len(planes[c]) != m*2*s.Words[c] {
			return nil, fmt.Errorf("dataset: split class-%d planes hold %d words, want %d", c, len(planes[c]), m*2*s.Words[c])
		}
		if mask := bitvec.TailMask(n[c]); mask != ^uint64(0) {
			w := s.Words[c]
			for p := 0; p < m*2; p++ {
				if planes[c][(p+1)*w-1]&^mask != 0 {
					return nil, fmt.Errorf("dataset: split class-%d plane %d has nonzero tail bits", c, p)
				}
			}
		}
		w := s.Words[c]
		for i := 0; i < m; i++ {
			g0, g1 := planes[c][i*2*w:(i*2+1)*w], planes[c][(i*2+1)*w:(i*2+2)*w]
			for k, a := range g0 {
				if a&g1[k] != 0 {
					return nil, &PlaneOverlapError{Encoding: "split", Class: c, SNP: i, Word: k}
				}
			}
		}
		s.planes[c] = planes[c]
	}
	return s, nil
}

// ClassPlaneData exposes one class's full plane storage in
// (snp*2+g)*Words layout. The slice aliases internal storage; the
// packed codec serializes it.
func (s *Split) ClassPlaneData(class int) []uint64 { return s.planes[class] }

func (s *Split) plane(class, snp, g int) []uint64 {
	w := s.Words[class]
	off := (snp*2 + g) * w
	return s.planes[class][off : off+w]
}

// Plane returns the words of genotype plane g (0 or 1) of the given SNP
// for the given class. The slice aliases internal storage.
func (s *Split) Plane(class, snp, g int) []uint64 {
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
