package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func matricesEqual(a, b *Matrix) bool {
	if a.SNPs() != b.SNPs() || a.Samples() != b.Samples() {
		return false
	}
	for i := 0; i < a.SNPs(); i++ {
		for j := 0; j < a.Samples(); j++ {
			if a.Geno(i, j) != b.Geno(i, j) {
				return false
			}
		}
	}
	for j := 0; j < a.Samples(); j++ {
		if a.Phen(j) != b.Phen(j) {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	mx := randomMatrix(30, 7, 53)
	var buf bytes.Buffer
	if err := WriteText(&buf, mx); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(mx, back) {
		t.Error("text round trip changed data")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	mx := randomMatrix(31, 9, 101)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mx); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(mx, back) {
		t.Error("binary round trip changed data")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	mx := randomMatrix(32, 50, 400)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, mx); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, mx); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len()/2 {
		t.Errorf("binary %d bytes, text %d bytes: binary should be <= 1/2", bb.Len(), tb.Len())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		m := int(mRaw%8) + 1
		n := int(nRaw%80) + 1
		mx := randomMatrix(seed, m, n)
		var tb, bb bytes.Buffer
		if WriteText(&tb, mx) != nil || WriteBinary(&bb, mx) != nil {
			return false
		}
		t1, err1 := ReadText(&tb)
		t2, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && matricesEqual(mx, t1) && matricesEqual(mx, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad magic":        "#other v1 2 2\n00\n00\n00\n",
		"missing dims":     "#trigene v1 2\n",
		"bad M":            "#trigene v1 x 2\n00\n00\n00\n",
		"bad N":            "#trigene v1 2 y\n00\n00\n00\n",
		"zero dims":        "#trigene v1 0 2\n",
		"huge dims":        "#trigene v1 99999999 2\n",
		"short row":        "#trigene v1 2 3\n000\n00\n000\n",
		"bad genotype":     "#trigene v1 1 3\n003\n000\n",
		"missing phen":     "#trigene v1 1 3\n000\n",
		"short phen":       "#trigene v1 1 3\n000\n00\n",
		"bad phen":         "#trigene v1 1 3\n000\n002\n",
		"truncated matrix": "#trigene v1 3 3\n000\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	mx := randomMatrix(33, 2, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mx); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty: expected error")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic: expected error")
	}
	if _, err := ReadBinary(bytes.NewReader(full[:6])); err == nil {
		t.Error("short header: expected error")
	}
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Error("truncated body: expected error")
	}
	// Corrupt dimensions.
	bad := append([]byte(nil), full...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("huge dims: expected error")
	}
	// Corrupt a genotype to the invalid packed value 3. Find a byte in
	// the genotype area and set two bits.
	bad = append([]byte(nil), full...)
	bad[12] |= 0x03
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("invalid genotype: expected error")
	}
}

// TestReadersRefuseHeadersPastTheInput: a header naming 2^24 x 2^24
// genotypes over an input that holds none of them is an error from both
// readers, whether the input's length is known (a bytes or strings
// Reader) or not (a stream), and neither allocates what the header names.
func TestReadersRefuseHeadersPastTheInput(t *testing.T) {
	bin := "TGB1\x00\x00\x00\x01\x00\x00\x00\x01"
	text := "#trigene v1 16777216 16777216\n"
	for _, tc := range []struct {
		name string
		read func() (*Matrix, error)
	}{
		{"binary, known length", func() (*Matrix, error) { return ReadBinary(strings.NewReader(bin)) }},
		{"binary, stream", func() (*Matrix, error) { return ReadBinary(iotest.OneByteReader(strings.NewReader(bin))) }},
		{"binary, a row's worth", func() (*Matrix, error) {
			return ReadBinary(iotest.HalfReader(strings.NewReader(bin + strings.Repeat("\x00", 1<<16))))
		}},
		{"text, known length", func() (*Matrix, error) { return ReadText(strings.NewReader(text)) }},
		{"text, no newline", func() (*Matrix, error) { return ReadText(strings.NewReader(strings.TrimSpace(text))) }},
		{"text, stream", func() (*Matrix, error) { return ReadText(iotest.OneByteReader(strings.NewReader(text + "0120\n"))) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mx, err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: read a %d x %d matrix", tc.name, mx.SNPs(), mx.Samples())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", tc.name, grew)
		}
	}
}

// TestStreamedReadsGrowToTheMatrix: read from a stream, whose length is
// not known, the text reader's genotypes and the binary reader's packed
// section grow as the rows arrive, past bodyChunk, and end holding the
// matrix exactly: no spare capacity is kept for the matrix's lifetime.
func TestStreamedReadsGrowToTheMatrix(t *testing.T) {
	mx, err := Generate(GenConfig{SNPs: 300, Samples: 16384, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var text, bin bytes.Buffer
	if err := WriteText(&text, mx); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, mx); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(iotest.HalfReader(&text))
	if err != nil {
		t.Fatal(err)
	}
	if want := mx.SNPs() * mx.Samples(); len(got.geno) != want || cap(got.geno) != want {
		t.Errorf("text: genotypes of length %d and capacity %d, want %d", len(got.geno), cap(got.geno), want)
	}
	if !bytes.Equal(got.geno, mx.geno) || !bytes.Equal(got.phen, mx.phen) {
		t.Error("text: the matrix read is not the one written")
	}
	packed := bin.Bytes()[12 : 12+(len(mx.geno)+3)/4]
	buf, err := readFull(iotest.HalfReader(bytes.NewReader(packed)), len(packed))
	if err != nil || cap(buf) != len(packed) || !bytes.Equal(buf, packed) {
		t.Errorf("binary: packed section of capacity %d, want %d (err %v)", cap(buf), len(packed), err)
	}
	if got, err := ReadBinary(iotest.HalfReader(&bin)); err != nil || !bytes.Equal(got.geno, mx.geno) {
		t.Errorf("binary: the matrix read is not the one written (err %v)", err)
	}
}

// readBinaryReference is the binary reader ReadBinary replaced, one
// genotype at a time: the oracle of FuzzReadBinary.
func readBinaryReference(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	m := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if m <= 0 || n <= 0 || m > 1<<24 || n > 1<<24 {
		return nil, fmt.Errorf("dataset: unreasonable dimensions %dx%d", m, n)
	}
	mx := NewMatrix(m, n)
	genoBytes := (m*n + 3) / 4
	buf := make([]byte, genoBytes)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("dataset: reading genotypes: %w", err)
	}
	for idx := 0; idx < m*n; idx++ {
		g := buf[idx/4] >> (uint(idx%4) * 2) & 3
		if g > 2 {
			return nil, fmt.Errorf("dataset: invalid packed genotype 3 at index %d", idx)
		}
		mx.geno[idx] = g
	}
	phenBytes := (n + 7) / 8
	pbuf := make([]byte, phenBytes)
	if _, err := io.ReadFull(br, pbuf); err != nil {
		return nil, fmt.Errorf("dataset: reading phenotypes: %w", err)
	}
	for j := 0; j < n; j++ {
		mx.phen[j] = pbuf[j/8] >> (uint(j) % 8) & 1
	}
	return mx, nil
}

// FuzzReadBinary: ReadBinary accepts exactly the inputs the reference
// reader accepts, with the same Matrix, and refuses the others with the
// same error text — whatever the bits past the last genotype and the
// last phenotype hold, wherever a code 3 sits, however the input is cut.
func FuzzReadBinary(f *testing.F) {
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 13}, {9, 101}} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomMatrix(int64(shape[0]), shape[0], shape[1])); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:12+len(valid[12:])/2])
		tails := append([]byte(nil), valid...)
		tails[len(tails)-1] |= 0xfe // phenotype bits past the last sample
		if (shape[0]*shape[1])%4 != 0 {
			tails[12+(shape[0]*shape[1])/4] |= 0xc0 // a code 3 past the last genotype
		}
		f.Add(tails)
		three := append([]byte(nil), valid...)
		three[12+len(valid[12:])/3] |= 0x0c
		f.Add(three)
	}
	f.Add([]byte("TGB1\x00\x00\x00\x00"))
	f.Add([]byte("TGB1\x02\x00\x00\x00\x03\x00\x00\x00\xff\x03"))
	// A header naming 2^24 x 2^24 genotypes and no body.
	f.Add([]byte("TGB1\x00\x00\x00\x01\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 {
			// The reference reader sizes its buffers from the header before
			// reading the body. ReadBinary must not: on an input too short
			// for what its header names, it alone runs, and refuses it.
			m, n := binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
			if m <= 1<<24 && n <= 1<<24 && uint64(m)*uint64(n) > 8*uint64(len(data))+64 {
				if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
					t.Fatalf("ReadBinary accepted %d bytes naming %d x %d genotypes", len(data), m, n)
				}
				return
			}
		}
		want, wantErr := readBinaryReference(bytes.NewReader(data))
		got, err := ReadBinary(bytes.NewReader(data))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ReadBinary error %v, reference %v", err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("ReadBinary error %q, reference %q", err, wantErr)
		case err == nil && !matricesEqual(got, want):
			t.Fatal("ReadBinary and the reference read different matrices")
		}
	})
}
