package datafile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"trigene/internal/dataset"
)

// write materializes content as a file in a test dir.
func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAutoDetection routes every supported magic to the right parser,
// including the tab-delimited .raw header plink2 emits.
func TestAutoDetection(t *testing.T) {
	rawSpaces := "FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_C\n" +
		"F S1 0 0 1 1 0 1\nF S2 0 0 1 2 2 0\n"
	rawTabs := strings.ReplaceAll(rawSpaces, " ", "\t")

	mx, err := dataset.Generate(dataset.GenConfig{SNPs: 4, Samples: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	if err := dataset.WriteBinary(&bin, mx); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := dataset.WriteText(&text, mx); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, content string
		snps, samples int
	}{
		{"space.raw", rawSpaces, 2, 2},
		{"tab.raw", rawTabs, 2, 2},
		{"data.tgb", bin.String(), 4, 20},
		{"data.tg", text.String(), 4, 20},
	}
	for _, tc := range cases {
		got, err := Read(write(t, tc.name, tc.content), "auto", "")
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.SNPs() != tc.snps || got.Samples() != tc.samples {
			t.Errorf("%s: %dx%d, want %dx%d", tc.name, got.SNPs(), got.Samples(), tc.snps, tc.samples)
		}
	}
}

// TestVCFPaths: auto-detected VCF requires the phenotype sidecar, and
// a valid pairing loads.
func TestVCFPaths(t *testing.T) {
	vcf := "##fileformat=VCFv4.2\n" +
		"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n" +
		"1\t1\trs1\tA\tG\t.\t.\t.\tGT\t0/1\t1/1\n"
	path := write(t, "x.vcf", vcf)
	if _, err := Read(path, "auto", ""); err == nil || !strings.Contains(err.Error(), "-phen") {
		t.Errorf("VCF without -phen: %v", err)
	}
	phen := write(t, "phen.txt", "0 1\n")
	mx, err := Read(path, "vcf", phen)
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 1 || mx.Samples() != 2 {
		t.Errorf("VCF dims %dx%d", mx.SNPs(), mx.Samples())
	}
	if _, err := Read(path, "vcf", write(t, "bad.txt", "0 7\n")); err == nil {
		t.Error("invalid phenotype value accepted")
	}
}

// TestReadErrors: unknown formats, missing files and explicit-format
// parse failures fail loudly.
func TestReadErrors(t *testing.T) {
	path := write(t, "junk", "junk\n")
	if _, err := Read(path, "bogus", ""); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := Read(filepath.Join(t.TempDir(), "absent"), "auto", ""); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := Read(path, "ped", ""); err == nil {
		t.Error("junk accepted as ped")
	}
	if _, err := Read(write(t, "short", "ab"), "auto", ""); err == nil {
		t.Error("too-short input accepted")
	}
}

// TestBEDPaths: a .bed path resolves its .bim/.fam sidecars under
// both the explicit format and magic-byte auto-detection, missing
// sidecars fail loudly, and stream input is rejected with a pointer
// at the path-based entry.
func TestBEDPaths(t *testing.T) {
	dir := t.TempDir()
	// Three SNPs x three samples: rows {2,0,1}, {0,1,2}, {1,1,0},
	// two-bit codes packed low bits first (00=2, 10=1, 11=0).
	bed := []byte{0x6c, 0x1b, 0x01, 0b10_11_00, 0b00_10_11, 0b11_10_10}
	bim := "1 rs0 0 1 A G\n1 rs1 0 2 A G\n1 rs2 0 3 A G\n"
	fam := "f a 0 0 1 1\nf b 0 0 1 2\nf c 0 0 2 2\n"
	bedPath := filepath.Join(dir, "x.bed")
	for name, content := range map[string][]byte{"x.bed": bed, "x.bim": []byte(bim), "x.fam": []byte(fam)} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []string{"bed", "auto"} {
		mx, err := Read(bedPath, format, "")
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if mx.SNPs() != 3 || mx.Samples() != 3 {
			t.Fatalf("format %q: dims %dx%d, want 3x3", format, mx.SNPs(), mx.Samples())
		}
		if got := mx.Row(0); got[0] != 2 || got[1] != 0 || got[2] != 1 {
			t.Fatalf("format %q: SNP 0 = %v, want [2 0 1]", format, got)
		}
	}
	sess, err := ReadSession(bedPath, "auto", "")
	if err != nil {
		t.Fatalf("ReadSession: %v", err)
	}
	if sess.SNPs() != 3 {
		t.Fatalf("session SNPs %d, want 3", sess.SNPs())
	}

	if err := os.Remove(filepath.Join(dir, "x.fam")); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bedPath, "bed", ""); err == nil || !strings.Contains(err.Error(), "bed sidecar") {
		t.Errorf("missing .fam: %v", err)
	}

	f, err := os.Open(bedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadFrom(f, "auto", ""); err == nil || !strings.Contains(err.Error(), "sidecars") {
		t.Errorf("streamed .bed: %v", err)
	}
}

// TestReadSizesFromTheFile: a regular file's size reaches the trigene
// binary and text readers through the bufio wrap, so a .tgb or text file
// costs its matrix, its packed sections and the scanner's buffer, not
// the copies of a buffer grown as the bytes arrive. A file read from an
// offset, a truncated file and a pipe (whose length is not known) read
// as before.
func TestReadSizesFromTheFile(t *testing.T) {
	mx := dataset.NewMatrix(320, 16384)
	for i := range mx.SNPs() {
		row := mx.Row(i)
		for j := range row {
			row[j] = uint8((i*7 + j*j) % 3)
		}
	}
	for j := range mx.Samples() {
		mx.SetPhen(j, uint8(j%5)&1)
	}
	var bin, text bytes.Buffer
	if err := dataset.WriteBinary(&bin, mx); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteText(&text, mx); err != nil {
		t.Fatal(err)
	}
	cells := mx.SNPs() * mx.Samples()
	for _, tc := range []struct {
		name, content string
		// most is what the read may allocate beyond the matrix itself.
		most int
	}{
		{"data.tgb", bin.String(), (cells+3)/4 + 64<<10},
		{"data.tg", text.String(), 1<<20 + 64<<10},
	} {
		path := write(t, tc.name, tc.content)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Read(path, "auto", "")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		equalMatrix(t, tc.name, got, mx)
		if sess, err := ReadSession(path, "auto", ""); err != nil || sess.SNPs() != mx.SNPs() || sess.Samples() != mx.Samples() {
			t.Errorf("%s: ReadSession: %v", tc.name, err)
		}
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(cells+mx.Samples()+tc.most); grew > most {
			t.Errorf("%s: read allocated %d bytes, want at most %d", tc.name, grew, most)
		}

		f, err := os.Open(write(t, "prefixed", "junk"+tc.content))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(4, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		got, err = ReadFrom(f, "auto", "")
		f.Close()
		if err != nil {
			t.Fatalf("%s from an offset: %v", tc.name, err)
		}
		equalMatrix(t, tc.name+" from an offset", got, mx)

		if _, err := Read(write(t, "short", tc.content[:len(tc.content)/2]), "auto", ""); err == nil {
			t.Errorf("%s: half the file read without an error", tc.name)
		}

		pr, pw, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			io.WriteString(pw, tc.content)
			pw.Close()
		}()
		sess, err := ReadSessionFrom(pr, "auto", "")
		pr.Close()
		if err != nil {
			t.Fatalf("%s through a pipe: %v", tc.name, err)
		}
		if sess.SNPs() != mx.SNPs() || sess.Samples() != mx.Samples() {
			t.Errorf("%s through a pipe: %d x %d", tc.name, sess.SNPs(), sess.Samples())
		}
	}
}

func equalMatrix(t *testing.T, name string, got, want *dataset.Matrix) {
	t.Helper()
	if got.SNPs() != want.SNPs() || got.Samples() != want.Samples() {
		t.Fatalf("%s: %d x %d, want %d x %d", name, got.SNPs(), got.Samples(), want.SNPs(), want.Samples())
	}
	for i := range want.SNPs() {
		if !bytes.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("%s: SNP %d differs", name, i)
		}
	}
	if !bytes.Equal(got.Phenotypes(), want.Phenotypes()) {
		t.Fatalf("%s: phenotypes differ", name)
	}
}
