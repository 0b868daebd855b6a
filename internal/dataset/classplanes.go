package dataset

import "fmt"

// ClassPlanes is the MPI3SNP-style data layout: per phenotype class,
// all three genotype bit planes of every SNP are stored (no NOR
// inference). The baseline backend consumes it; the encoded-dataset
// store memoizes it so repeated baseline runs build it once.
type ClassPlanes struct {
	M      int
	words  [2]int
	planes [2][]uint64 // [class] -> (snp*3+g)*words
}

// BuildClassPlanes converts a genotype matrix into the per-class
// three-plane form. Sample order within each class follows the
// original sample order.
func BuildClassPlanes(mx *Matrix) *ClassPlanes { return Pack(mx).ClassPlanes() }

// ClassWords returns the 64-bit words per plane for the given class.
func (cp *ClassPlanes) ClassWords(class int) int { return cp.words[class] }

// Plane returns the words of genotype plane g (0, 1 or 2) of the given
// SNP for the given class. The slice aliases internal storage.
func (cp *ClassPlanes) Plane(class, snp, g int) []uint64 {
	// A caller bug, as for Split.Plane.
	if class < 0 || class > 1 || snp < 0 || snp >= cp.M || g < 0 || g > 2 {
		panic(fmt.Sprintf("dataset: class plane (%d,%d,%d) out of range", class, snp, g))
	}
	w := cp.words[class]
	off := (snp*3 + g) * w
	return cp.planes[class][off : off+w]
}
