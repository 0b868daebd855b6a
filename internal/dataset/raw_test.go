package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// readRAWReference is the reader ReadRAW replaced — bufio.Scanner,
// strings.Fields, one row per sample, a column-by-column gather — kept
// word for word as the oracle the block reader is tested against.
func readRAWReference(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	m := -1
	line := 0
	var rows [][]uint8
	var phen []uint8
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if m == -1 {
			// Header line.
			if len(fields) < 7 || fields[0] != "FID" || fields[5] != "PHENOTYPE" {
				return nil, fmt.Errorf("dataset: raw line %d: not a .raw header (want FID IID PAT MAT SEX PHENOTYPE snp...)", line)
			}
			m = len(fields) - 6
			continue
		}
		if len(fields) != 6+m {
			return nil, fmt.Errorf("dataset: raw line %d: truncated or ragged line: %d fields, want %d", line, len(fields), 6+m)
		}
		switch fields[5] {
		case "1":
			phen = append(phen, Control)
		case "2":
			phen = append(phen, Case)
		default:
			return nil, fmt.Errorf("dataset: raw line %d: unsupported phenotype %q (want 1 or 2)", line, fields[5])
		}
		row := make([]uint8, m)
		for i, code := range fields[6:] {
			switch code {
			case "0":
				row[i] = 0
			case "1":
				row[i] = 1
			case "2":
				row[i] = 2
			case "NA":
				return nil, fmt.Errorf("dataset: raw line %d: missing genotype (NA) at SNP %d", line, i)
			default:
				return nil, fmt.Errorf("dataset: raw line %d: non-biallelic dosage code %q at SNP %d (want 0, 1 or 2)", line, code, i)
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading raw: %w", err)
	}
	if m == -1 {
		return nil, fmt.Errorf("dataset: raw input has no header")
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: raw input has no samples")
	}

	mx := NewMatrix(m, len(rows))
	for j, p := range phen {
		mx.SetPhen(j, p)
	}
	for snp := 0; snp < m; snp++ {
		dst := mx.Row(snp)
		for j, row := range rows {
			dst[j] = row[snp]
		}
	}
	return mx, nil
}

// rawText writes mx the way plink --recode A does: one space between
// fields, one line per sample.
func rawText(mx *Matrix) []byte {
	var b bytes.Buffer
	b.WriteString("FID IID PAT MAT SEX PHENOTYPE")
	for i := 0; i < mx.SNPs(); i++ {
		fmt.Fprintf(&b, " snp%d_A", i)
	}
	b.WriteByte('\n')
	for j := 0; j < mx.Samples(); j++ {
		fmt.Fprintf(&b, "F%d I%d 0 0 0 %d", j, j, mx.Phen(j)+1)
		for i := 0; i < mx.SNPs(); i++ {
			b.WriteByte(' ')
			b.WriteByte('0' + mx.Geno(i, j))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func generated(t testing.TB, snps, samples int, seed int64) *Matrix {
	t.Helper()
	mx, err := Generate(GenConfig{SNPs: snps, Samples: samples, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

func isASCII(data []byte) bool {
	for _, c := range data {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// checkAgainstReference holds the block reader, at each of the given
// block sizes, to the reference: it accepts only what the reference
// accepts, with the packed sections and content hash that packing the
// reference's matrix gives and that matrix when decoded, and on ASCII
// input it also refuses everything the reference refuses, with the same
// error text. (Outside ASCII it may refuse more: see ReadRAW on
// separators.)
func checkAgainstReference(t testing.TB, data []byte, blockSizes ...int) {
	t.Helper()
	want, wantErr := readRAWReference(bytes.NewReader(data))
	for _, blockSize := range blockSizes {
		got, err := readRAW(bytes.NewReader(data), blockSize, rawMaxLine)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("block %d: accepted what the reference refuses with %q\ninput %q", blockSize, wantErr, data)
		case err == nil:
			if !packedEqual(got, referencePack(want)) {
				t.Fatalf("block %d: packed sections differ from the reference's\ninput %q", blockSize, data)
			}
			if !matricesEqual(want, got.Matrix()) {
				t.Fatalf("block %d: matrix differs from the reference's\ninput %q", blockSize, data)
			}
		case !isASCII(data):
			// Refused, and allowed to be.
		case wantErr == nil:
			t.Fatalf("block %d: refused with %q what the reference accepts\ninput %q", blockSize, err, data)
		case err.Error() != wantErr.Error():
			t.Fatalf("block %d: error %q, reference %q\ninput %q", blockSize, err, wantErr, data)
		}
	}
}

// referencePack packs mx one row at a time with packGenotypes, on one
// goroutine: what the reader's sections and Pack's SNP-parallel runs are
// held to.
func referencePack(mx *Matrix) *Packed {
	m, n := mx.SNPs(), mx.Samples()
	p := &Packed{M: m, N: n, Geno: make([]byte, (m*n+3)/4), Phen: make([]byte, (n+7)/8)}
	for i := 0; i < m; i++ {
		packGenotypes(p.Geno, i*n, mx.Row(i))
	}
	for j := 0; j < n; j++ {
		p.Phen[j/8] |= mx.Phen(j) << (j % 8)
	}
	return p
}

// packedEqual compares two datasets' packed sections and content hashes.
func packedEqual(a, b *Packed) bool {
	return a.M == b.M && a.N == b.N && bytes.Equal(a.Geno, b.Geno) && bytes.Equal(a.Phen, b.Phen) && a.Hash() == b.Hash()
}

// TestReadRAWBlockEdges runs inputs of every awkward shape at block sizes
// small enough that every line straddles a block edge (a block then grows
// to hold the one line).
func TestReadRAWBlockEdges(t *testing.T) {
	const h = "FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_G rs3_T\n"
	const good = "F S 0 0 1 1 0 1 2\n"
	cases := map[string]string{
		"plain":               h + good + "F S 0 0 1 2 2 2 0\n",
		"one sample":          h + good,
		"header only":         h,
		"header, no newline":  strings.TrimSuffix(h, "\n"),
		"empty":               "",
		"blank only":          "\n \n\t\r\n",
		"no trailing newline": h + good + "F S 0 0 1 2 2 2 0",
		"CRLF":                strings.ReplaceAll(h+good+good, "\n", "\r\n"),
		"CR alone separates":  h + "F S 0 0 1 1 0\r1\r2\n",
		"tabs":                strings.ReplaceAll(h+good+good, " ", "\t"),
		"tabs then spaces":    h + "F\tS\t0\t0\t1\t1 0 1 2\n" + "F S 0 0 1 1\t0\t1 2\n",
		"runs of spaces":      h + "  F   S 0  0 1 1   0 1    2   \n" + good,
		"VT and FF":           h + "F\vS\f0 0 1 1 0 1 2\n",
		"blank lines":         "\n\n" + h + "\n" + good + "   \n\r\n" + good + "\n\n",
		"leading blanks, bad": "\n\nnot a header\n",
		"headerless row":      good,
		"header too short":    "FID IID PAT MAT SEX PHENOTYPE\n" + good,
		"header misnamed":     "FID IID PAT MAT SEX PHENO rs1\n",
		"bad first":           h + "F S 0 0 1 1 0 1\n" + good + good,
		"bad last":            h + good + good + "F S 0 0 1 1 0 1 2 2\n",
		"bad last, no nl":     h + good + good + "F S 0 0 1 9 0 1 2",
		"two bad lines":       h + good + "F S 0 0 1 1 0 NA 2\n" + good + "F S 0 0 1 1 0 1\n",
		"ragged beats phen":   h + "F S 0 0 1 9 0 1\n",
		"ragged beats code":   h + "F S 0 0 1 1 7 1\n",
		"phen beats code":     h + "F S 0 0 1 9 7 NA 2\n",
		"first bad code wins": h + "F S 0 0 1 1 0 1.5 NA\n",
		"NA":                  h + "F S 0 0 1 1 NA 1 2\n",
		"code 3":              h + "F S 0 0 1 1 0 1 3\n",
		"two digit code":      h + "F S 0 0 1 1 0 11 2\n",
		"code after a tab":    h + "F S 0 0 1 1 0\t3 2\n",
		"phenotype 0":         h + "F S 0 0 1 0 0 1 2\n",
		"phenotype -9":        h + "F S 0 0 1 -9 0 1 2\n",
		"phenotype quoted":    h + "F S 0 0 1 \"1\" 0 1 2\n",
		"five fields":         h + "F S 0 0 1\n",
		"long ids":            h + strings.Repeat("F", 200) + " " + strings.Repeat("S", 300) + " 0 0 1 2 0 1 2\n",
		"NUL in an id":        h + "F\x00 S 0 0 1 1 0 1 2\n",
		"seven columns":       "FID IID PAT MAT SEX PHENOTYPE a b c d e f g\n" + "F S 0 0 1 1 0 1 2 0 1 2 0\n" + "F S 0 0 1 2 2 2 2 2 2 2 2\n" + "F S 0 0 1 2 2 2 2 2 2 2 3\n",
		"one column":          "FID IID PAT MAT SEX PHENOTYPE a\n" + "F S 0 0 1 1 2\nF S 0 0 1 2 0\n",
		"one sample, 5 SNPs":  string(rawText(randomMatrix(1, 5, 1))),
		"N = 5 (1 mod 4)":     string(rawText(randomMatrix(2, 7, 5))),
		"N = 6 (2 mod 4)":     string(rawText(randomMatrix(3, 7, 6))),
		"N = 7 (3 mod 4)":     string(rawText(randomMatrix(4, 7, 7))),
		"N = 13 (1 mod 4)":    string(rawText(randomMatrix(5, 9, 13))),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, []byte(in), 1, 2, 7, 16, 64, rawBlockSize)
		})
	}
}

// TestReadRAWManyBlocks reads a generated file at block sizes that put
// tens to thousands of blocks, and so every tokenizer, to work, with a
// sample count that is no multiple of the tile side or of four.
func TestReadRAWManyBlocks(t *testing.T) {
	for _, dims := range [][2]int{{5, 40}, {67, 333}, {130, 1027}} {
		mx := generated(t, dims[0], dims[1], 23)
		text := rawText(mx)
		for _, block := range []int{64, 1000, 1 << 14, rawBlockSize} {
			got, err := readRAW(bytes.NewReader(text), block, rawMaxLine)
			if err != nil {
				t.Fatalf("%v block %d: %v", dims, block, err)
			}
			if !matricesEqual(mx, got.Matrix()) {
				t.Fatalf("%v block %d: matrix differs from the one written", dims, block)
			}
		}
		checkAgainstReference(t, text, 1<<12)
	}
}

// TestReadRAWLowestLineWins plants bad lines in several blocks of a
// many-block input: whichever tokenizer meets one first, the error names
// the lowest. Run under -race this is also the reader's concurrency test.
func TestReadRAWLowestLineWins(t *testing.T) {
	lines := bytes.SplitAfter(rawText(generated(t, 9, 600, 5)), []byte("\n"))
	for _, at := range []int{590, 301, 300, 120} { // planted from the back, so each is the new lowest
		lines[at] = []byte("F I 0 0 0 1 0 1 2\n") // three codes where nine are wanted
		text := bytes.Join(lines, nil)
		want := fmt.Sprintf("dataset: raw line %d: truncated or ragged line: 9 fields, want 15", at+1)
		for run := 0; run < 100; run++ {
			_, err := readRAW(bytes.NewReader(text), 256, rawMaxLine)
			if err == nil || err.Error() != want {
				t.Fatalf("run %d: error %v, want %q", run, err, want)
			}
		}
	}
}

// TestReadRAWForeignSpace pins the one documented narrowing: only ASCII
// white space separates fields, and a line with any other is refused.
func TestReadRAWForeignSpace(t *testing.T) {
	const h = "FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_G\n"
	for name, in := range map[string]string{
		"NBSP as separator":     h + "F S 0 0 1 1 0\u00a01\n",
		"NEL as separator":      h + "F S 0 0 1 1\u00850 1\n",
		"NBSP inside an id":     h + "F\u00a0X S 0 0 1 1 0 1\n",
		"NBSP in the header":    "FID IID PAT MAT SEX PHENOTYPE rs1\u00a0A rs2_G\nF S 0 0 1 1 0 1\n",
		"line of NBSP":          h + "\u00a0\nF S 0 0 1 1 0 1\n",
		"em space inside an id": h + "F S\u2003T 0 0 1 1 0 1\n",
	} {
		_, err := ReadRAW(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "truncated or ragged line") {
			t.Errorf("%s: error %v, want a ragged-line refusal", name, err)
		}
		checkAgainstReference(t, []byte(in), 16)
	}
	// Other bytes above ASCII are field content, as they always were.
	in := h + "Müller S\xff 0 0 1 2 0 1\n"
	if _, err := ReadRAW(strings.NewReader(in)); err != nil {
		t.Errorf("non-ASCII id refused: %v", err)
	}
	checkAgainstReference(t, []byte(in), 16)
}

// endlessLine serves bytes with no newline among them, for ever, and
// counts them.
type endlessLine struct{ served int }

func (e *endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.served += len(p)
	return len(p), nil
}

// TestReadRAWLineBound: a line at the bound is refused where the reference
// refuses it, and refused as soon as the bound is reached, not buffered
// to see how long it gets.
func TestReadRAWLineBound(t *testing.T) {
	if rawMaxLine != 1<<26 {
		t.Fatalf("line bound %d, want the replaced reader's 64 MiB", rawMaxLine)
	}
	const bound = 1 << 12
	const h = "FID IID PAT MAT SEX PHENOTYPE rs1_A\n"
	fits := h + "F" + strings.Repeat("x", bound-14) + " S 0 0 1 1 2\n" // bound-1 bytes before the newline
	if _, err := readRAW(strings.NewReader(fits), 64, bound); err != nil {
		t.Errorf("line of bound-1 bytes refused: %v", err)
	}
	for name, in := range map[string]string{
		"at the bound":            h + "F" + strings.Repeat("x", bound-13) + " S 0 0 1 1 2\n",
		"at the bound, last line": h + "F S 0 0 1 1 2\n" + strings.Repeat("x", bound),
	} {
		_, err := readRAW(strings.NewReader(in), 64, bound)
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: error %v, want %v", name, err, bufio.ErrTooLong)
		}
	}
	// A bad line before the long one is still the error reported.
	_, err := readRAW(strings.NewReader(h+"F S 0 0 1 1 7\n"+strings.Repeat("x", 2*bound)), 64, bound)
	if err == nil || !strings.Contains(err.Error(), "raw line 2: non-biallelic") {
		t.Errorf("bad line before an overlong one: error %v", err)
	}

	src := &endlessLine{}
	if _, err := readRAW(src, 64, bound); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("endless line: error %v, want %v", err, bufio.ErrTooLong)
	}
	if src.served > bound {
		t.Errorf("endless line: read %d bytes before refusing, bound is %d", src.served, bound)
	}
}

// failingReader serves data and then err in place of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadRAWReadError: a failing stream is reported as the reference
// reports it — after any bad line among what did arrive, the cut-off last
// line included.
func TestReadRAWReadError(t *testing.T) {
	const h = "FID IID PAT MAT SEX PHENOTYPE rs1_A\n"
	boom := errors.New("boom")
	for name, in := range map[string]string{
		"nothing read":     "",
		"mid header":       "FID IID PAT",
		"after header":     h,
		"after a sample":   h + "F S 0 0 1 1 2\n",
		"mid sample":       h + "F S 0 0 1 1 2\nF S 0 0",
		"after a bad line": h + "F S 0 0 1 1 5\nF S 0 0 1 1 2\n",
	} {
		for _, block := range []int{4, rawBlockSize} {
			_, wantErr := readRAWReference(&failingReader{[]byte(in), boom})
			_, err := readRAW(&failingReader{[]byte(in), boom}, block, rawMaxLine)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s, block %d: error %v, reference %v", name, block, err, wantErr)
			}
			if strings.Contains(wantErr.Error(), "reading raw") && !errors.Is(err, boom) {
				t.Errorf("%s, block %d: error %v does not wrap the stream's", name, block, err)
			}
		}
	}
}

// TestReadRAWAllocations: the reader allocates per block and per
// tokenizer, not per line or per field. (The replaced reader made three
// allocations and about 12 KB of garbage for each of these 4096 lines.)
func TestReadRAWAllocations(t *testing.T) {
	text := rawText(generated(t, 256, 4096, 7)) // 2.2 MB: three blocks
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadRAW(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("%.0f allocations for %d lines in %d blocks, want under 100", allocs, 4096, len(text)/rawBlockSize+1)
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadRAWStagingFollowsBytes: staging is sized by the bytes of the
// block in hand, never by the width the header declares. A header of 2^20
// columns followed by nothing, or by one short line, costs the buffers
// that hold the header line (grown by doubling: under four times its
// length) and no row or staging of 2^20 of anything on top.
func TestReadRAWStagingFollowsBytes(t *testing.T) {
	const columns = 1 << 20
	header := "FID IID PAT MAT SEX PHENOTYPE" + strings.Repeat(" s", columns) + "\n"
	for name, tc := range map[string]struct{ tail, wantErr string }{
		"then EOF":         {"", "no samples"},
		"then a short row": {"F S 0 0 1 1 0 1 2\n", "raw line 2: truncated or ragged line: 9 fields, want 1048582"},
	} {
		in := header + tc.tail
		var err error
		got := allocatedBy(func() { _, err = ReadRAW(strings.NewReader(in)) })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want %q", name, err, tc.wantErr)
		}
		if limit := uint64(4*len(in) + rawBlockSize); got > limit {
			t.Errorf("%s: allocated %d bytes for %d of input, want at most %d", name, got, len(in), limit)
		}
	}
	// And a wide file's staging is a fraction of its text: reading 64 rows
	// of 2^14 columns (2 MiB) allocates the Matrix, a few blocks and the
	// chunks, well under the 64 x 2^14 x workers a per-tokenizer bank of
	// declared-width rows would be.
	mx := generated(t, 1<<14, 64, 3)
	text := rawText(mx)
	got := allocatedBy(func() {
		if _, err := ReadRAW(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	workers := runtime.GOMAXPROCS(0)
	if limit := uint64(len(text)*3 + (workers+2)*rawBlockSize); got > limit {
		t.Errorf("allocated %d bytes for %d of input, want at most %d", got, len(text), limit)
	}
}

// manySamples is a .raw input of one SNP and the given number of sample
// lines, generated as it is read.
type manySamples struct {
	head string
	left int
	buf  []byte
}

func (g *manySamples) Read(p []byte) (int, error) {
	const line = "F I 0 0 0 1 0\n"
	if len(g.buf) == 0 {
		switch {
		case g.head != "":
			g.buf, g.head = []byte(g.head), ""
		case g.left > 0:
			k := min(g.left, 1<<16)
			g.buf, g.left = []byte(strings.Repeat(line, k)), g.left-k
		default:
			return 0, io.EOF
		}
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

// TestReadRAWRefusesTooManySamples: a .raw of MaxSamples + 1 sample lines
// (≈ 235 MB, generated as it is read) is refused with its count before
// the packed sections are allocated.
func TestReadRAWRefusesTooManySamples(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 2^24 + 1 sample lines")
	}
	_, err := ReadRAWPacked(&manySamples{head: "FID IID PAT MAT SEX PHENOTYPE rs1_A\n", left: MaxSamples + 1})
	if want := fmt.Sprintf("raw input has %d samples, more than %d", MaxSamples+1, MaxSamples); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%d samples: err = %v, want %q", MaxSamples+1, err, want)
	}
}
