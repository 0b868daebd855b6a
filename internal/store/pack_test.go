package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trigene/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.tpack")

// goldenMatrix is the fixed dataset behind testdata/golden.tpack.
func goldenMatrix(t testing.TB) *dataset.Matrix {
	return genMatrix(t, 23, 117, 42)
}

// TestGoldenPack pins the on-disk format: the pack bytes of a fixed
// dataset must match the committed golden file byte for byte, so any
// codec change that silently alters the format (offsets, ordering,
// endianness) fails here until the version is bumped deliberately.
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
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	// And the golden file round-trips into an identical dataset.
	loaded, err := ReadPack(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != st.Hash() {
		t.Fatalf("golden hash %s != source hash %s", loaded.Hash(), st.Hash())
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
		// The adopted encodings must equal fresh ones, and must not count
		// as builds.
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
		if b := st.Builds(); b.Binarized != 0 || b.Split != 0 {
			t.Fatalf("%dx%d: pack load counted as build: %+v", dims.m, dims.n, b)
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
	// On unix little-endian hosts (the CI platform) the pack must map.
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
			// Flip one bit in a split-plane word; the per-section CRC
			// catches it even though the content hash (geno+phen only)
			// still matches.
			off := binary.LittleEndian.Uint64(b[packHeaderSize+(secSplit0-1)*sectionEntrySize+8:])
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
		{"overlapping split planes", overlapPack(good, secSplit0, 2), "split class-0 planes of SNP 0 overlap"},
		{"overlapping binarized planes", overlapPack(good, secBin, 3), "binarized planes of SNP 0 overlap"},
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

// overlapPack returns a copy of a good pack in which the first sample
// carries two genotypes of SNP 0 in one plane section (per SNP planes
// the section holds that many planes): plane 1's first word is OR-ed
// into plane 0's and the section CRC recomputed, so every integrity
// check passes and only the semantic one can refuse it.
func overlapPack(good []byte, sec, perSNP int) []byte {
	b := append([]byte(nil), good...)
	e := b[packHeaderSize+(sec-1)*sectionEntrySize:]
	off := binary.LittleEndian.Uint64(e[8:])
	ln := binary.LittleEndian.Uint64(e[16:])
	m := uint64(binary.LittleEndian.Uint32(b[16:]))
	words := ln / 8 / (m * uint64(perSNP))
	p0, p1 := b[off:off+8], b[off+words*8:off+words*8+8]
	binary.LittleEndian.PutUint64(p0, binary.LittleEndian.Uint64(p0)|binary.LittleEndian.Uint64(p1)|1)
	binary.LittleEndian.PutUint64(p1, binary.LittleEndian.Uint64(p1)|1)
	binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(b[off:off+ln], castagnoli))
	return b
}

// TestOverlappingPlanesRefused pins the trust boundary the fused kernel
// leans on: a pack whose CRCs and content hash all verify but whose
// split (or binarized) planes give one sample two genotypes must be
// refused by both loaders with the typed error — not searched, where
// the derived cells would go negative and index outside the K2 table.
func TestOverlappingPlanesRefused(t *testing.T) {
	good := packBytes(t, genMatrix(t, 9, 40, 9))
	for _, tc := range []struct {
		name        string
		sec, perSNP int
		encoding    string
	}{{"split", secSplit0, 2, "split"}, {"split class 1", secSplit1, 2, "split"}, {"binarized", secBin, 3, "binarized"}} {
		bad := overlapPack(good, tc.sec, tc.perSNP)
		path := filepath.Join(t.TempDir(), "bad.tpack")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, readErr := ReadPack(bytes.NewReader(bad))
		_, openErr := Open(path)
		for loader, err := range map[string]error{"ReadPack": readErr, "Open": openErr} {
			var overlap *dataset.PlaneOverlapError
			if !errors.As(err, &overlap) {
				t.Errorf("%s: %s returned %v, want a *dataset.PlaneOverlapError", tc.name, loader, err)
				continue
			}
			if overlap.Encoding != tc.encoding || overlap.SNP != 0 || overlap.Word != 0 {
				t.Errorf("%s: %s located the overlap at %+v", tc.name, loader, *overlap)
			}
		}
	}
}

// FuzzReadPack drives the pack loader with arbitrary bytes: it must
// reject or accept without panicking, and anything it accepts must
// behave like a dataset (consistent dimensions, usable encodings).
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
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	// Valid checksums over planes that give a sample two genotypes.
	f.Add(overlapPack(buf.Bytes(), secSplit0, 2))
	f.Add(overlapPack(buf.Bytes(), secBin, 3))
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
		// The adopted encodings and the lazily decoded matrix must be
		// internally consistent without panicking.
		if got := st.Matrix(); got.SNPs() != st.SNPs() || got.Samples() != st.Samples() {
			t.Fatal("matrix dimensions disagree with header")
		}
		if err := st.Matrix().Validate(); err != nil {
			t.Fatalf("accepted pack decodes an invalid matrix: %v", err)
		}
		// The kernels' derivations need the stored planes of a SNP
		// pairwise disjoint.
		sp, bin := st.Split(), st.Binarized()
		for i := 0; i < st.SNPs(); i++ {
			for c := 0; c < 2; c++ {
				for k, w := range sp.Plane(c, i, 0) {
					if w&sp.Plane(c, i, 1)[k] != 0 {
						t.Fatalf("accepted pack with overlapping split planes (class %d, SNP %d)", c, i)
					}
				}
			}
			for k, w := range bin.Plane(i, 0) {
				if g1, g2 := bin.Plane(i, 1)[k], bin.Plane(i, 2)[k]; w&g1|(w|g1)&g2 != 0 {
					t.Fatalf("accepted pack with overlapping binarized planes (SNP %d)", i)
				}
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
