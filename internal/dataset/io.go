package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// Text format:
//
//	#trigene v1 <M> <N>
//	<M lines of N genotype digits (0/1/2), no separators>
//	<1 line of N phenotype digits (0/1)>
//
// Binary format (little endian):
//
//	magic "TGB1", uint32 M, uint32 N,
//	M*N genotypes packed 2 bits each (4 per byte, row-major),
//	N phenotypes packed 1 bit each (8 per byte).

const textMagic = "#trigene v1"

// WriteText serializes the matrix in the line-oriented text format.
func WriteText(w io.Writer, mx *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d %d\n", textMagic, mx.SNPs(), mx.Samples()); err != nil {
		return err
	}
	line := make([]byte, mx.Samples()+1)
	line[mx.Samples()] = '\n'
	for i := 0; i < mx.SNPs(); i++ {
		row := mx.Row(i)
		for j, g := range row {
			line[j] = '0' + g
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	for j := 0; j < mx.Samples(); j++ {
		line[j] = '0' + mx.Phen(j)
	}
	if _, err := bw.Write(line); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses the text format produced by WriteText. The genotypes
// are reserved in full only when r's length is known and can hold the
// rows its header names; otherwise they grow as the rows arrive, so a
// header naming more than the input holds costs no more memory than the
// input.
func ReadText(r io.Reader) (*Matrix, error) {
	left, known := knownSize(r)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty input: %w", orEOF(sc.Err()))
	}
	header := sc.Text()
	if !strings.HasPrefix(header, textMagic) {
		return nil, fmt.Errorf("dataset: bad header %q", truncate(header, 40))
	}
	fields := strings.Fields(strings.TrimPrefix(header, textMagic))
	if len(fields) != 2 {
		return nil, fmt.Errorf("dataset: header needs M and N, got %q", truncate(header, 40))
	}
	m, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("dataset: bad M: %w", err)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("dataset: bad N: %w", err)
	}
	if m <= 0 || n <= 0 || m > 1<<24 || n > MaxSamples {
		return nil, fmt.Errorf("dataset: unreasonable dimensions %dx%d", m, n)
	}
	reserve := min(m*n, bodyChunk)
	if known && int64(m)*int64(n+1)+int64(n) <= left {
		reserve = m * n
	}
	geno := make([]uint8, 0, reserve)
	for i := 0; i < m; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("dataset: truncated at SNP row %d: %w", i, orEOF(sc.Err()))
		}
		row := sc.Bytes()
		if len(row) != n {
			return nil, fmt.Errorf("dataset: SNP row %d has %d values, want %d", i, len(row), n)
		}
		base := len(geno)
		geno = grow(geno, n, m*n)[:base+n]
		dst := geno[base:]
		for j, ch := range row {
			if ch < '0' || ch > '2' {
				return nil, fmt.Errorf("dataset: SNP row %d sample %d: invalid genotype %q", i, j, ch)
			}
			dst[j] = ch - '0'
		}
	}
	mx := &Matrix{m: m, n: n, geno: geno, phen: make([]uint8, n)}
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: missing phenotype row: %w", orEOF(sc.Err()))
	}
	prow := sc.Bytes()
	if len(prow) != n {
		return nil, fmt.Errorf("dataset: phenotype row has %d values, want %d", len(prow), n)
	}
	for j, ch := range prow {
		if ch != '0' && ch != '1' {
			return nil, fmt.Errorf("dataset: sample %d: invalid phenotype %q", j, ch)
		}
		mx.SetPhen(j, ch-'0')
	}
	return mx, nil
}

var binMagic = [4]byte{'T', 'G', 'B', '1'}

// WriteBinary serializes the matrix in the compact binary format: the
// header, then the sections of Pack(mx), which are its body byte for
// byte.
func WriteBinary(w io.Writer, mx *Matrix) error {
	p := Pack(mx)
	var hdr [12]byte
	copy(hdr[:4], binMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.M))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.N))
	for _, b := range [][]byte{hdr[:], p.Geno, p.Phen} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses the binary format produced by WriteBinary: its body
// is read straight into the packed sections and decoded from them. The
// bits past the last genotype carry nothing and are cleared before a
// genotype of code 3 is searched for and refused. A section is allocated
// whole only when r's length is known to hold it (readFull); a header
// naming more than the input holds is refused before any allocation, or,
// from a stream, costs no more memory than the stream delivers.
func ReadBinary(r io.Reader) (*Matrix, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	m := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if m <= 0 || n <= 0 || m > 1<<24 || n > MaxSamples {
		return nil, fmt.Errorf("dataset: unreasonable dimensions %dx%d", m, n)
	}
	p := &Packed{M: m, N: n}
	var err error
	if p.Geno, err = readFull(r, (m*n+3)/4); err != nil {
		return nil, fmt.Errorf("dataset: reading genotypes: %w", err)
	}
	if tail := m * n % 4; tail != 0 {
		p.Geno[len(p.Geno)-1] &= 1<<(2*tail) - 1
	}
	if idx := firstCode3(p.Geno); idx >= 0 {
		return nil, fmt.Errorf("dataset: invalid packed genotype 3 at index %d", idx)
	}
	if p.Phen, err = readFull(r, (n+7)/8); err != nil {
		return nil, fmt.Errorf("dataset: reading phenotypes: %w", err)
	}
	return p.Matrix(), nil
}

// bodyChunk is the most a reader reserves ahead of the bytes that have
// arrived when the input's length is not known.
const bodyChunk = 1 << 20

// knownSize is how many bytes r has left when r tells it through a Len
// method: a bytes.Reader, bytes.Buffer or strings.Reader, or the reader
// datafile puts over a regular file.
func knownSize(r io.Reader) (left int64, ok bool) {
	if v, ok := r.(interface{ Len() int }); ok {
		return int64(v.Len()), true
	}
	return 0, false
}

// grow returns buf with room for more bytes past its length: its
// capacity doubles, but never past limit, so a buffer grown to hold
// limit bytes holds no more.
func grow(buf []byte, more, limit int) []byte {
	if len(buf)+more <= cap(buf) {
		return buf
	}
	nb := make([]byte, len(buf), min(limit, max(2*cap(buf), len(buf)+more)))
	copy(nb, buf)
	return nb
}

// readFull is io.ReadFull into a new buffer of size bytes, with its
// errors, committing no more memory than r holds: the buffer is made
// whole when r's length is known (and not at all when r is shorter),
// and otherwise grows, doubling up to size, as the bytes arrive.
func readFull(r io.Reader, size int) ([]byte, error) {
	if left, ok := knownSize(r); ok {
		switch {
		case left >= int64(size):
			buf := make([]byte, size)
			_, err := io.ReadFull(r, buf)
			return buf, err
		case left == 0:
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, 0, min(size, bodyChunk))
	for len(buf) < size {
		buf = grow(buf, 1, size)
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// firstCode3 returns the index of the first entry of a 2-bit genotype
// section that holds code 3, or -1: eight bytes at a time, where an
// entry's two bits both set is a bit of x & x>>1 at an even position.
func firstCode3(geno []byte) int {
	const even = 0x5555555555555555
	for at := 0; at < len(geno); at += 8 {
		var x uint64
		if at+8 <= len(geno) {
			x = binary.LittleEndian.Uint64(geno[at:])
		} else {
			var last [8]byte
			copy(last[:], geno[at:])
			x = binary.LittleEndian.Uint64(last[:])
		}
		if threes := x & (x >> 1) & even; threes != 0 {
			return 4*at + bits.TrailingZeros64(threes)/2
		}
	}
	return -1
}

func orEOF(err error) error {
	if err == nil {
		return io.ErrUnexpectedEOF
	}
	return err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
