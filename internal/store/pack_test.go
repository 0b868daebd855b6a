package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"trigene/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.tpack and testdata/tampered_v1.tpack")

// goldenMatrix is the fixed dataset behind testdata/golden.tpack and
// testdata/golden_v1.tpack.
func goldenMatrix(t testing.TB) *dataset.Matrix {
	return genMatrix(t, 23, 117, 42)
}

// TestGoldenPack pins the on-disk format: the pack bytes of a fixed
// dataset must match the committed golden file byte for byte, so any
// codec change that silently alters the format (offsets, ordering,
// endianness) fails here until the version is bumped deliberately. The
// file is the header and the geno and phen sections, nothing else.
func TestGoldenPack(t *testing.T) {
	st, err := New(goldenMatrix(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.tpack")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("pack bytes differ from golden file (%d vs %d bytes); the format changed without a version bump", buf.Len(), len(want))
	}
	p := st.Packed()
	if size := packHeaderSize + numSections*sectionEntrySize + (len(p.Geno)+7)&^7 + (len(p.Phen)+7)&^7; len(want) != size {
		t.Fatalf("golden pack holds %d bytes, want %d: the header, the table and the two sections", len(want), size)
	}
	// And the golden file round-trips into an identical dataset.
	loaded, err := ReadPack(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != st.Hash() {
		t.Fatalf("golden hash %s != source hash %s", loaded.Hash(), st.Hash())
	}
}

// swapPlanes returns a copy of a version 1 pack in which genotype planes
// 0 and 1 of every SNP trade places in the bin and split0 sections, with
// the sections' CRCs recomputed. Every checksum and the content hash
// still verify and the planes stay disjoint, so a loader that adopted
// them would search a different dataset under the genuine hash.
func swapPlanes(v1 []byte) []byte {
	b := bytes.Clone(v1)
	m := int(binary.LittleEndian.Uint32(b[16:]))
	for _, sec := range []struct{ id, perSNP int }{{3, 3}, {4, 2}} {
		e := b[packHeaderSize+(sec.id-1)*sectionEntrySize:]
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		data := b[off : off+ln]
		plane := len(data) / (m * sec.perSNP)
		for i := 0; i < m; i++ {
			p0 := data[i*sec.perSNP*plane : (i*sec.perSNP+1)*plane]
			p1 := data[(i*sec.perSNP+1)*plane : (i*sec.perSNP+2)*plane]
			for k := range p0 {
				p0[k], p1[k] = p1[k], p0[k]
			}
		}
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(data, castagnoli))
	}
	return b
}

// readGoldenV1 returns testdata/golden_v1.tpack, the golden pack as
// format version 1 wrote it: five sections, three of them planes.
func readGoldenV1(t testing.TB) []byte {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.tpack"))
	if err != nil {
		t.Fatal(err)
	}
	return v1
}

// TestVersion1PacksSearchTheirGenotypes: a version 1 pack still loads,
// and every encoding of it is built from its geno and phen sections, so
// planes that disagree with them are never read. The golden version 1
// file, and the same file with its bin and split0 planes swapped under
// recomputed CRCs (testdata/tampered_v1.tpack, which the root and
// cluster tests load too), both give the encodings of the genuine
// matrix, through ReadPack and Open.
func TestVersion1PacksSearchTheirGenotypes(t *testing.T) {
	v1 := readGoldenV1(t)
	tampered := swapPlanes(v1)
	path := filepath.Join("testdata", "tampered_v1.tpack")
	if *updateGolden {
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(want, tampered) {
		t.Fatalf("%s is not golden_v1.tpack with its planes swapped (err %v; run with -update-golden)", path, err)
	}
	if bytes.Equal(v1, tampered) {
		t.Fatal("swapping the planes changed nothing")
	}
	ref, err := New(goldenMatrix(t))
	if err != nil {
		t.Fatal(err)
	}
	refSplit, refBin := ref.Split(), ref.Binarized()
	for name, data := range map[string][]byte{"golden_v1": v1, "tampered_v1": tampered} {
		file := filepath.Join(t.TempDir(), name+".tpack")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, err := ReadPack(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadPack: %v", name, err)
		}
		opened, err := Open(file)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		for loader, st := range map[string]*Store{"ReadPack": read, "Open": opened} {
			if st.Hash() != ref.Hash() {
				t.Errorf("%s via %s: hash %s, want %s", name, loader, st.Hash(), ref.Hash())
			}
			if b := st.Builds(); b != (Builds{}) {
				t.Errorf("%s via %s: the load built %+v", name, loader, b)
			}
			split, bin := st.Split(), st.Binarized()
			some := st.SNPPlanes([]int{0, 7, 22})
			for i := 0; i < ref.SNPs(); i++ {
				for c := 0; c < 2; c++ {
					for g := 0; g < 2; g++ {
						if !slices.Equal(split.Plane(c, i, g), refSplit.Plane(c, i, g)) {
							t.Fatalf("%s via %s: split plane (%d,%d,%d) is not the matrix's", name, loader, c, i, g)
						}
					}
				}
				for g := 0; g < 3; g++ {
					if !slices.Equal(bin.Plane(i, g), refBin.Plane(i, g)) {
						t.Fatalf("%s via %s: binarized plane (%d,%d) is not the matrix's", name, loader, i, g)
					}
					if want := some.Plane(i, g); want != nil && !slices.Equal(want, refBin.Plane(i, g)) {
						t.Fatalf("%s via %s: SNPPlanes plane (%d,%d) is not the matrix's", name, loader, i, g)
					}
				}
			}
		}
		opened.Close()
	}
}

// TestVersion1HeapImageKeepsNoPlanes: a version 1 pack read into the
// heap copies its geno and phen sections out of the image, so the image,
// 3.5x their size with its unread plane sections, is not kept resident;
// a version 2 image is just those sections and is aliased. Scribbling
// over each image after the load tells the two apart.
func TestVersion1HeapImageKeepsNoPlanes(t *testing.T) {
	v2 := packBytes(t, goldenMatrix(t))
	for name, tc := range map[string]struct {
		data  []byte
		alias bool
	}{"version 1": {readGoldenV1(t), false}, "version 2": {v2, true}} {
		img := bytes.Clone(tc.data)
		st, err := parsePack(img, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		geno := bytes.Clone(st.packed.Geno)
		clear(img)
		if aliased := !bytes.Equal(st.packed.Geno, geno); aliased != tc.alias {
			t.Errorf("%s: geno section aliases the image: %v, want %v", name, aliased, tc.alias)
		}
	}
}

func packBytes(t testing.TB, mx *dataset.Matrix) []byte {
	t.Helper()
	st, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WritePack(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPackRoundTrip(t *testing.T) {
	for _, dims := range []struct{ m, n int }{
		{5, 9},    // ragged tails in every section
		{16, 64},  // word-aligned everywhere
		{31, 257}, // multi-word planes with tails
	} {
		mx := genMatrix(t, dims.m, dims.n, int64(dims.m*1000+dims.n))
		raw := packBytes(t, mx)
		st, err := ReadPack(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%dx%d: %v", dims.m, dims.n, err)
		}
		got := st.Matrix()
		for i := 0; i < mx.SNPs(); i++ {
			for j := 0; j < mx.Samples(); j++ {
				if mx.Geno(i, j) != got.Geno(i, j) {
					t.Fatalf("%dx%d: genotype (%d,%d) differs", dims.m, dims.n, i, j)
				}
			}
		}
		for j := 0; j < mx.Samples(); j++ {
			if mx.Phen(j) != got.Phen(j) {
				t.Fatalf("%dx%d: phenotype %d differs", dims.m, dims.n, j)
			}
		}
		// The split form is built from the packed sections, once, and
		// equals a fresh one.
		if b := st.Builds(); b != (Builds{Matrix: 1}) {
			t.Fatalf("%dx%d: pack load and Matrix built %+v, want the Matrix only", dims.m, dims.n, b)
		}
		ref := dataset.SplitBinarize(mx)
		sp := st.Split()
		for c := 0; c < 2; c++ {
			for i := 0; i < mx.SNPs(); i++ {
				for g := 0; g < 2; g++ {
					a, b := sp.Plane(c, i, g), ref.Plane(c, i, g)
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("%dx%d: split plane differs", dims.m, dims.n)
						}
					}
				}
			}
		}
		if b := st.Builds(); b != (Builds{Split: 1, Matrix: 1}) {
			t.Fatalf("%dx%d: builds %+v, want one Split and the Matrix", dims.m, dims.n, b)
		}
	}
}

func TestOpenMmap(t *testing.T) {
	mx := genMatrix(t, 19, 211, 8)
	raw := packBytes(t, mx)
	path := filepath.Join(t.TempDir(), "d.tpack")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// On unix hosts (the CI platform) the pack must map.
	if !st.Mapped() {
		t.Log("pack not mapped; heap fallback in use on this platform")
	}
	ref, err := New(mx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash() != ref.Hash() {
		t.Fatalf("hash %s != %s", st.Hash(), ref.Hash())
	}
	bin, binRef := st.Binarized(), ref.Binarized()
	for i := 0; i < mx.SNPs(); i++ {
		for g := 0; g < 3; g++ {
			a, b := bin.Plane(i, g), binRef.Plane(i, g)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("mapped plane (%d,%d) differs", i, g)
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Mapped() {
		t.Fatal("still mapped after Close")
	}
	if err := st.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestReadPackErrors asserts the codec's error text for each way a
// pack can be broken, so operators can tell truncation from corruption
// from version skew.
func TestReadPackErrors(t *testing.T) {
	good := packBytes(t, genMatrix(t, 9, 40, 9))
	v1 := readGoldenV1(t)
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated pack"},
		{"short header", good[:40], "truncated pack"},
		{"truncated body", good[:len(good)-16], "header says"},
		{"bad magic", mut(func(b []byte) { copy(b, "NOPE") }), "bad magic"},
		{"wrong version", mut(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 9) }), "unsupported pack version 9"},
		{"wrong hash", mut(func(b []byte) { b[33] ^= 0xFF }), "content hash mismatch"},
		{"corrupt section", mut(func(b []byte) {
			// Flip one phenotype bit; the section CRC names the
			// corruption before the content hash is computed.
			off := binary.LittleEndian.Uint64(b[packHeaderSize+(secPhen-1)*sectionEntrySize+8:])
			b[off] ^= 1
		}), "checksum mismatch"},
		{"corrupt genotypes", mut(func(b []byte) {
			// Flip a genotype byte to the invalid 2-bit code 3, with a
			// recomputed section CRC so the semantic check is reached.
			off := binary.LittleEndian.Uint64(b[packHeaderSize+8:])
			ln := binary.LittleEndian.Uint64(b[packHeaderSize+16:])
			b[off] = 0xFF
			sum := crc32.Checksum(b[off:off+ln], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(b[packHeaderSize+4:], sum)
		}), "invalid packed genotype"},
		{"version 2 with version 1's sections", withSections(good, 5), "version 2 pack has 5 sections, want 2"},
		{"version 1 with version 2's sections", withSections(v1, 2), "version 1 pack has 2 sections, want 5"},
		{"version 1 plane section out of bounds", func() []byte {
			b := append([]byte(nil), v1...)
			binary.LittleEndian.PutUint64(b[packHeaderSize+4*sectionEntrySize+16:], uint64(len(b)))
			return b
		}(), "out of bounds"},
		{"class counts", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 0); binary.LittleEndian.PutUint32(b[28:], 40) }), "degenerate dataset"},
		{"section out of bounds", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[packHeaderSize+16:], 1<<40)
		}), "out of bounds"},
	}
	for _, tc := range cases {
		_, err := ReadPack(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// withSections returns a copy of a pack whose header claims count
// sections.
func withSections(pack []byte, count uint32) []byte {
	b := append([]byte(nil), pack...)
	binary.LittleEndian.PutUint32(b[64:], count)
	return b
}

// FuzzReadPack drives the pack loader with arbitrary bytes: it must
// reject or accept without panicking, and anything it accepts must
// behave like a dataset: consistent dimensions, and encodings equal to
// those of the matrix it decodes to.
func FuzzReadPack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TPK1"))
	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 6, Samples: 18, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	st, err := New(mx)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WritePack(&buf); err != nil {
		f.Fatal(err)
	}
	v1 := readGoldenV1(f)
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(v1)
	// Valid checksums over planes that disagree with the genotypes.
	f.Add(swapPlanes(v1))
	// Each version's header over the other's section table: refused.
	f.Add(withSections(buf.Bytes(), 5))
	f.Add(withSections(v1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadPack(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.SNPs() <= 0 || st.Samples() <= 0 {
			t.Fatalf("accepted pack with dimensions %dx%d", st.SNPs(), st.Samples())
		}
		c0, c1 := st.ClassCounts()
		if c0+c1 != st.Samples() || c0 <= 0 || c1 <= 0 {
			t.Fatalf("accepted pack with class counts %d+%d of %d", c0, c1, st.Samples())
		}
		mx := st.Matrix()
		if mx.SNPs() != st.SNPs() || mx.Samples() != st.Samples() {
			t.Fatal("matrix dimensions disagree with header")
		}
		if err := mx.Validate(); err != nil {
			t.Fatalf("accepted pack decodes an invalid matrix: %v", err)
		}
		if st.Hash() != dataset.Pack(mx).Hash() {
			t.Fatal("accepted pack names a hash its matrix does not have")
		}
		split, ref := st.Split(), dataset.SplitBinarize(mx)
		for c := 0; c < 2; c++ {
			if !slices.Equal(split.ClassPlaneData(c), ref.ClassPlaneData(c)) {
				t.Fatalf("accepted pack's class-%d split planes are not its matrix's", c)
			}
		}
	})
}

// TestValidateGenoFindsEveryCode3: the genotype check tests eight bytes
// at a time, so a 3 is planted in every 2-bit slot of every byte of
// sections of 0 to 40 bytes — whole words, a ragged tail and both — among
// codes 0..2 whose high bits meet the next byte's low bit when a word is
// shifted: each must be refused, naming its byte, and the section without
// it must pass.
func TestValidateGenoFindsEveryCode3(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for n := 0; n <= 40; n++ {
		geno := make([]byte, n)
		for i := range geno {
			for slot := 0; slot < 4; slot++ {
				geno[i] |= byte(r.Intn(3)) << (2 * slot)
			}
		}
		if err := validateGeno(geno); err != nil {
			t.Fatalf("n=%d: valid section refused: %v", n, err)
		}
		for i := range geno {
			for slot := 0; slot < 4; slot++ {
				bad := append([]byte(nil), geno...)
				bad[i] |= 3 << (2 * slot)
				want := fmt.Sprintf("near index %d", i*4)
				if err := validateGeno(bad); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("n=%d, a 3 in slot %d of byte %d: got %v, want an error %s", n, slot, i, err, want)
				}
			}
		}
	}
}
