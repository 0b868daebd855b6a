package dataset

import "fmt"

// Layout selects the memory arrangement of the 32-bit word forms used
// by the GPU approaches. The paper's GPU V2 uses SNP-major rows, V3 a
// transposed (sample-word-major) arrangement that coalesces warp loads,
// and V4 a tiled arrangement that keeps blocks of BS SNPs adjacent.
type Layout int

const (
	// LayoutRowMajor stores each SNP's words contiguously
	// (word index fastest): address = snp*W + word.
	LayoutRowMajor Layout = iota
	// LayoutTransposed stores each sample word group contiguously
	// across SNPs: address = word*M + snp.
	LayoutTransposed
	// LayoutTiled groups SNPs into tiles of BS; inside a tile the words
	// of the BS SNPs for one sample group are adjacent:
	// address = (snp/BS)*BS*W + word*BS + snp%BS.
	LayoutTiled
)

// String returns the layout name used in reports.
func (l Layout) String() string {
	switch l {
	case LayoutRowMajor:
		return "row-major"
	case LayoutTransposed:
		return "transposed"
	case LayoutTiled:
		return "tiled"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// WordBits32 is the GPU word width. The paper compresses input data with
// 32-bit integers for portability across all devices; the GPU simulator
// keeps that granularity because memory-coalescing behaviour is defined
// in terms of the per-thread access size.
const WordBits32 = 32

// Words32 holds the phenotype-split dataset re-encoded as 32-bit words
// for the GPU simulator, in one of the three layouts.
type Words32 struct {
	M       int
	MPadded int    // M rounded up to a tile multiple (== M unless tiled)
	N       [2]int // samples per class
	W       [2]int // 32-bit words per class
	Pad     [2]int // zero padding bits in the last word of each class
	Layout  Layout
	BS      int // tile width in SNPs (tiled layout only, else 0)

	data [2][2][]uint32 // [class][plane]
}

// BuildWords32 re-encodes a Split dataset into 32-bit words with the
// requested layout. bs is the SNP tile width and must be positive for
// LayoutTiled (ignored otherwise).
func BuildWords32(s *Split, layout Layout, bs int) *Words32 {
	w := &Words32{M: s.M, MPadded: s.M, Layout: layout}
	if layout == LayoutTiled {
		// A caller bug: the tile width is a device's (gpusim's device
		// table), never read from a file or a spec.
		if bs <= 0 {
			panic(fmt.Sprintf("dataset: tiled layout requires positive tile size, got %d", bs))
		}
		w.BS = bs
		w.MPadded = (s.M + bs - 1) / bs * bs
	}
	for c := 0; c < 2; c++ {
		w.N[c] = s.N[c]
		w.W[c] = (s.N[c] + WordBits32 - 1) / WordBits32
		w.Pad[c] = w.W[c]*WordBits32 - s.N[c]
		for g := 0; g < 2; g++ {
			w.data[c][g] = make([]uint32, w.MPadded*w.W[c])
		}
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < s.M; i++ {
			for g := 0; g < 2; g++ {
				src := s.Plane(c, i, g)
				dst := w.data[c][g]
				for k := 0; k < w.W[c]; k++ {
					half := uint32(src[k/2] >> (uint(k%2) * 32))
					dst[w.Index(i, k, c)] = half
				}
			}
		}
	}
	return w
}

// Index returns the flat position of (snp, word) for the given class
// under the receiver's layout.
func (w *Words32) Index(snp, word, class int) int {
	switch w.Layout {
	case LayoutRowMajor:
		return snp*w.W[class] + word
	case LayoutTransposed:
		return word*w.MPadded + snp
	case LayoutTiled:
		return (snp/w.BS)*w.BS*w.W[class] + word*w.BS + snp%w.BS
	default:
		// Unreachable: BuildWords32 makes every Words32, and only with
		// the layout constants its callers name.
		panic(fmt.Sprintf("dataset: unknown layout %d", int(w.Layout)))
	}
}

// Word returns the 32-bit word at (snp, word) of plane g for a class.
func (w *Words32) Word(class, g, snp, word int) uint32 {
	return w.data[class][g][w.Index(snp, word, class)]
}

// Data exposes the raw plane array for a class/plane pair. The GPU
// simulator uses it together with Index to model memory addresses.
func (w *Words32) Data(class, g int) []uint32 { return w.data[class][g] }

// Naive32 is the Figure 1 naive representation in 32-bit words: three
// genotype planes over all samples plus the phenotype, SNP-major. The
// GPU V1 kernel consumes it.
type Naive32 struct {
	M, N int
	W    int // 32-bit words over all samples
	Pad  int
	data [3][]uint32
	Phen []uint32
}

// BuildNaive32 re-encodes a Binarized dataset into 32-bit words.
func BuildNaive32(b *Binarized) *Naive32 {
	n := &Naive32{M: b.M, N: b.N}
	n.W = (b.N + WordBits32 - 1) / WordBits32
	n.Pad = n.W*WordBits32 - b.N
	for g := 0; g < 3; g++ {
		n.data[g] = make([]uint32, b.M*n.W)
	}
	n.Phen = make([]uint32, n.W)
	for i := 0; i < b.M; i++ {
		for g := 0; g < 3; g++ {
			src := b.Plane(i, g)
			for k := 0; k < n.W; k++ {
				n.data[g][i*n.W+k] = uint32(src[k/2] >> (uint(k%2) * 32))
			}
		}
	}
	pw := b.Phen.Words()
	for k := 0; k < n.W; k++ {
		n.Phen[k] = uint32(pw[k/2] >> (uint(k%2) * 32))
	}
	return n
}

// Word returns the 32-bit word at (snp, word) of plane g.
func (n *Naive32) Word(g, snp, word int) uint32 { return n.data[g][snp*n.W+word] }

// Data exposes the raw plane array.
func (n *Naive32) Data(g int) []uint32 { return n.data[g] }
