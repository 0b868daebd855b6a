package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// The .raw reader is a three-stage pipeline over bytes, with no string,
// field slice or row allocated per line:
//
//	rawBlocks     cuts the stream into newline-aligned blocks of about
//	              rawBlockSize bytes, in buffers that are recycled;
//	rawTokenizer  (one per goroutine, up to GOMAXPROCS) walks a block's
//	              lines into row-major staging, then transposes the
//	              staging through an L1-sized tile into the block's chunk:
//	              SNP-major, four genotypes to the byte;
//	readRAW       sums the chunks' line and row counts in input order —
//	              which is when N, and so where each chunk's genotypes go,
//	              is first known — and ORs every chunk into the dataset's
//	              packed section (Packed), a word at a time.
//
// A chunk is already in the section's byte layout, four genotypes to the
// byte with the first in the low bits, so assembling the section is a
// shifted copy; the M x N byte Matrix is built only if the caller wants
// one (ReadRAW).

const (
	// rawBlockSize is how much text one tokenizer call sees. A block grows
	// past it only to hold a single longer line.
	rawBlockSize = 1 << 20
	// rawMaxLine refuses a line of this many bytes or more, the bound
	// bufio.Scanner enforced in the reader this one replaced.
	rawMaxLine = 1 << 26
	// rawTile is the side of the transpose tile: 64 x 64 bytes is 4 KiB,
	// a small fraction of L1.
	rawTile = 64
)

// readRAW is ReadRAWPacked with its two sizes as parameters; tests shrink
// them so that every line straddles a block edge.
func readRAW(r io.Reader, blockSize, maxLine int) (*Packed, error) {
	workers := runtime.GOMAXPROCS(0)
	// One block being filled, one queued, one with each tokenizer.
	src := newRawBlocks(r, blockSize, maxLine, workers+2)

	// The header is the first line with a field on it; lines are counted
	// from here so that a chunk's relative line numbers can be made absolute.
	m, line := -1, 0
	var rest, restBuf []byte
	for m < 0 {
		blk := src.next()
		if len(blk) == 0 {
			break
		}
		data := blk
		for len(data) > 0 && m < 0 {
			var ln []byte
			ln, data = cutLine(data)
			line++
			var msg string
			if m, msg = rawHeaderLine(ln); msg != "" {
				return nil, fmt.Errorf("dataset: raw line %d: %s", line, msg)
			}
		}
		if m < 0 {
			src.recycle(blk)
			continue
		}
		rest, restBuf = data, blk
	}
	if m < 0 {
		if src.err != io.EOF {
			return nil, fmt.Errorf("dataset: reading raw: %w", src.err)
		}
		return nil, fmt.Errorf("dataset: raw input has no header")
	}

	// Tokenizers are started as blocks arrive, so a one-block input costs
	// one goroutine. Blocks are handed out in input order and every block
	// handed out is tokenised to its end or its first bad line, so once a
	// tokenizer has failed no later block can hold the lowest bad line and
	// reading stops.
	var (
		chunks []*rawChunk
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	type job struct {
		data, buf []byte
		out       *rawChunk
	}
	jobs := make(chan job, 1) // one block queued while the next is read
	dispatch := func(data, buf []byte) {
		c := new(rawChunk)
		if len(chunks) < workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := rawTokenizer{m: m, vector: hasAVX512}
				for j := range jobs {
					t.tokenize(j.data, j.out)
					if j.out.err != "" {
						failed.Store(true)
					}
					src.recycle(j.buf)
				}
			}()
		}
		chunks = append(chunks, c)
		jobs <- job{data, buf, c}
	}
	dispatch(rest, restBuf)
	for !failed.Load() {
		blk := src.next()
		if len(blk) == 0 {
			break
		}
		dispatch(blk, blk)
	}
	close(jobs)
	wg.Wait()

	n := 0
	for _, c := range chunks {
		line += c.lines
		if c.err != "" {
			return nil, fmt.Errorf("dataset: raw line %d: %s", line, c.err)
		}
		n += c.rows
	}
	if src.err != io.EOF {
		return nil, fmt.Errorf("dataset: reading raw: %w", src.err)
	}
	if n == 0 {
		return nil, fmt.Errorf("dataset: raw input has no samples")
	}
	if n > MaxSamples {
		return nil, fmt.Errorf("dataset: raw input has %d samples, more than %d", n, MaxSamples)
	}
	return assembleChunks(m, n, chunks, hasAVX512), nil
}

// assembleChunks ORs the chunks, in input order, into the packed sections
// of the m x n dataset they make up, the genotypes on the AVX-512 body of
// copyGenotypes where vector is set.
func assembleChunks(m, n int, chunks []*rawChunk, vector bool) *Packed {
	p := &Packed{M: m, N: n, Geno: make([]byte, (m*n+3)/4), Phen: make([]byte, (n+7)/8)}
	off := 0
	for _, c := range chunks {
		for r, ph := range c.phen {
			p.Phen[(off+r)/8] |= ph << ((off + r) % 8)
		}
		off += c.rows
	}
	// Row i of a chunk goes to entry i*n plus the rows before the chunk. A
	// run of SNPs starts on a byte (eight rows are whole bytes), so runs
	// write disjoint bytes.
	eachSNPRun(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at := i * n
			for _, c := range chunks {
				stride := (c.rows + 3) / 4
				copyGenotypes(p.Geno, at, c.packed, 4*i*stride, c.rows, vector)
				at += c.rows
			}
		}
	})
	return p
}

// rawBlocks cuts a stream into blocks of whole lines. At most limit
// buffers exist; next waits for a consumer to recycle one when all are out.
type rawBlocks struct {
	r             io.Reader
	size, maxLine int
	buf           []byte // the block being filled
	fill          int    // buf[:fill] has been read and not handed out
	err           error  // why reading stopped: io.EOF, a read error or bufio.ErrTooLong
	free          chan []byte
	unmade        int // buffers not yet allocated
}

func newRawBlocks(r io.Reader, size, maxLine, limit int) *rawBlocks {
	return &rawBlocks{r: r, size: size, maxLine: maxLine, free: make(chan []byte, limit), unmade: limit}
}

// next returns the next run of whole lines — the input's last line may
// lack its newline — and nothing once reading has stopped; err says why.
// After a read error what was read still comes out, cut-off last line
// included, as bufio.Scanner delivered it.
func (b *rawBlocks) next() []byte {
	if b.err != nil {
		return nil
	}
	if b.buf == nil {
		b.buf = b.get(0)
	}
	for empties := 0; ; {
		for b.err == nil && b.fill < len(b.buf) {
			n, err := b.r.Read(b.buf[b.fill:])
			b.fill += n
			b.err = err
			if n > 0 {
				empties = 0
			} else if empties++; err == nil && empties > 100 {
				b.err = io.ErrNoProgress
			}
		}
		data := b.buf[:b.fill]
		if b.err != nil {
			b.buf, b.fill = nil, 0
			return data
		}
		if cut := bytes.LastIndexByte(data, '\n') + 1; cut > 0 {
			b.buf = b.get(b.fill - cut + 1)
			b.fill = copy(b.buf, data[cut:])
			return data[:cut]
		}
		// The buffer is full of one unfinished line.
		if len(b.buf) >= b.maxLine {
			b.err, b.buf, b.fill = bufio.ErrTooLong, nil, 0
			return nil
		}
		grown := make([]byte, min(2*len(b.buf), b.maxLine))
		copy(grown, data)
		b.buf = grown
	}
}

// get returns a buffer with room for need bytes, recycled if possible.
func (b *rawBlocks) get(need int) []byte {
	var buf []byte
	if b.unmade > 0 {
		b.unmade--
	} else {
		buf = <-b.free
	}
	if buf == nil || cap(buf) < need {
		buf = make([]byte, max(b.size, min(2*need, b.maxLine)))
	}
	return buf[:cap(buf)]
}

// recycle gives back a block's buffer. It never blocks: free has room
// for every buffer that exists.
func (b *rawBlocks) recycle(buf []byte) { b.free <- buf }

// cutLine splits data after its first newline; the line comes back
// without it.
func cutLine(data []byte) (ln, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:]
	}
	return data, nil
}

// isRawSpace reports an ASCII white-space byte other than the newline
// that ends a line: space, tab, VT, FF, CR.
func isRawSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// fieldScanner walks a line's white-space separated fields.
type fieldScanner struct {
	ln []byte
	p  int
	hi byte // OR of every field byte seen: >= 0x80 if the line is not ASCII
}

// next returns the next field, empty at the end of the line.
func (s *fieldScanner) next() []byte {
	ln, p := s.ln, s.p
	for p < len(ln) && isRawSpace(ln[p]) {
		p++
	}
	start := p
	for p < len(ln) && !isRawSpace(ln[p]) {
		s.hi |= ln[p]
		p++
	}
	s.p = p
	return ln[start:p]
}

// foreignSpace refuses a line holding a white-space rune outside ASCII.
// Fields are split at ASCII white space only, so such a line would mean
// one thing here and another to a Unicode-aware splitter.
func (s *fieldScanner) foreignSpace() string {
	if s.hi < utf8.RuneSelf {
		return ""
	}
	for i := 0; i < len(s.ln); {
		if s.ln[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, w := utf8.DecodeRune(s.ln[i:])
		if unicode.IsSpace(r) {
			return fmt.Sprintf("truncated or ragged line: white space %U is not a separator (fields are split at ASCII white space)", r)
		}
		i += w
	}
	return ""
}

// rawHeaderLine counts the SNP columns of the header line. A line without
// fields is not the header yet: m is -1 and msg empty.
func rawHeaderLine(ln []byte) (m int, msg string) {
	s := fieldScanner{ln: ln}
	nf, named := 0, true
	for f := s.next(); len(f) > 0; f = s.next() {
		switch nf {
		case 0:
			named = named && string(f) == "FID"
		case 5:
			named = named && string(f) == "PHENOTYPE"
		}
		nf++
	}
	switch {
	case nf == 0:
		return -1, ""
	case nf < 7 || !named:
		return -1, "not a .raw header (want FID IID PAT MAT SEX PHENOTYPE snp...)"
	}
	if msg := s.foreignSpace(); msg != "" {
		return -1, msg
	}
	return nf - 6, ""
}

// rawChunk is what one block came to.
type rawChunk struct {
	lines int // lines tokenised: the whole block, or up to and including the bad one
	rows  int // sample lines among them
	// packed holds the rows' genotypes SNP-major, four to the byte: SNP
	// i's are packed[i*stride:(i+1)*stride], stride = (rows+3)/4.
	packed []byte
	phen   []uint8 // one per row
	err    string  // what is wrong with line `lines` of the block
}

// rawTokenizer turns blocks into chunks. Its staging is reused from
// block to block and sized by the block's bytes, never by m alone.
type rawTokenizer struct {
	m      int
	vector bool    // decode and transpose on the AVX-512 bodies
	rows   []uint8 // row-major genotypes of the block in hand
	phen   []uint8
	tile   [rawTile * rawTile]uint8
}

func (t *rawTokenizer) tokenize(data []byte, c *rawChunk) {
	m := t.m
	// Six leading fields, m codes and a separator before all but the first.
	shortest := 2*m + 11
	// No more lines that long fit, newline included (the block's last may
	// lack it). Rounded up to whole quads of rows for transpose, staging is
	// at most half the block's bytes and three rows, themselves no wider
	// than half a block that holds one, and a tile's width over: the
	// AVX-512 transpose reads a tile of 64 columns where the last is cut.
	if need := ((len(data)+1)/(shortest+1)+3)/4*4*m + rawTile; cap(t.rows) < need {
		t.rows = make([]uint8, need)
	}
	t.phen = t.phen[:0]
	for len(data) > 0 {
		var ln []byte
		ln, data = cutLine(data)
		c.lines++
		for len(ln) > 0 && isRawSpace(ln[len(ln)-1]) {
			ln = ln[:len(ln)-1]
		}
		if len(ln) < shortest {
			// Too short for 6+m fields: blank or ragged.
			s := fieldScanner{ln: ln}
			nf := 0
			for len(s.next()) > 0 {
				nf++
			}
			if nf > 0 {
				c.err = raggedLine(nf, m)
				return
			}
			continue
		}
		row := t.rows[len(t.phen)*m:][:m]
		phen, msg := rawSampleLine(ln, row, t.vector)
		if msg != "" {
			c.err = msg
			return
		}
		t.phen = append(t.phen, phen)
	}
	c.rows = len(t.phen)
	c.phen = append([]uint8(nil), t.phen...)
	c.packed = t.transpose(c.rows)
}

func raggedLine(nf, m int) string {
	return fmt.Sprintf("truncated or ragged line: %d fields, want %d", nf, 6+m)
}

// rawSampleLine decodes one sample line, right-trimmed and not blank,
// into row and returns its phenotype, or what is wrong with the line:
// its field count first, then its phenotype, then its first bad code.
func rawSampleLine(ln []byte, row []uint8, vector bool) (phen uint8, msg string) {
	m := len(row)
	s := fieldScanner{ln: ln}
	var phenField, bad []byte
	nf, badAt := 0, 0
	for ; nf < 6; nf++ {
		f := s.next()
		if len(f) == 0 {
			break
		}
		phenField = f
	}
	if nf == 6 && rawFastCodes(ln[s.p:], row, vector) {
		nf += m
	} else {
		for f := s.next(); len(f) > 0; f = s.next() {
			if k := nf - 6; k < m {
				if d := f[0] - '0'; len(f) == 1 && d <= 2 {
					row[k] = d
				} else if bad == nil {
					bad, badAt = f, k
				}
			}
			nf++
		}
	}
	if nf != 6+m {
		return 0, raggedLine(nf, m)
	}
	if msg := s.foreignSpace(); msg != "" {
		return 0, msg
	}
	switch string(phenField) {
	case "1":
		phen = Control
	case "2":
		phen = Case
	default:
		return 0, fmt.Sprintf("unsupported phenotype %q (want 1 or 2)", phenField)
	}
	switch {
	case bad == nil:
		return phen, ""
	case string(bad) == "NA":
		return 0, fmt.Sprintf("missing genotype (NA) at SNP %d", badAt)
	default:
		return 0, fmt.Sprintf("non-biallelic dosage code %q at SNP %d (want 0, 1 or 2)", bad, badAt)
	}
}

// rawFastCodes decodes the shape PLINK writes after the phenotype —
// len(row) times one separator (space from plink, tab from plink2) and
// one digit 0..2, then the end of the line — 32 codes to a 64-byte step
// of the AVX-512 body where vector is set, then eight codes to two 64-bit
// loads. It reports false for any other shape, and the caller then walks
// the fields; what it wrote to row by then is overwritten.
func rawFastCodes(tail []byte, row []uint8, vector bool) bool {
	if len(tail) != 2*len(row) {
		return false
	}
	sep := tail[0]
	if sep != ' ' && sep != '\t' {
		return false
	}
	clean := true
	if steps := len(row) / 32; vector && steps > 0 {
		clean = rawCodesAVX512(&row[0], &tail[0], steps, uint32(sep)*0x00010001|0x30003000)
		tail, row = tail[64*steps:], row[32*steps:]
	}
	// XOR with the expected bytes leaves 0 under every separator and the
	// code under every digit.
	want := uint64(sep)*0x0001000100010001 | 0x3000300030003000
	var bad uint64
	for len(row) >= 8 && len(tail) >= 16 {
		a := binary.LittleEndian.Uint64(tail) ^ want
		b := binary.LittleEndian.Uint64(tail[8:]) ^ want
		// Anything but 0 under a separator, above 3 under a digit, or 3.
		bad |= (a|b)&0xfcfffcfffcfffcff | (a&(a>>1)|b&(b>>1))&0x0100010001000100
		// Bytes 1, 3, 5, 7 of each to bytes 0..3 of a, 4..7 of b.
		a >>= 8
		a = (a | a>>8) & 0x0000ffff0000ffff
		a = (a | a>>16) & 0xffffffff
		b >>= 8
		b = (b | b>>8) & 0x0000ffff0000ffff
		b = (b | b>>16) << 32
		binary.LittleEndian.PutUint64(row, a|b)
		tail, row = tail[16:], row[8:]
	}
	for k := range row {
		d := tail[2*k+1] - '0'
		if tail[2*k] != sep || d > 2 {
			return false
		}
		row[k] = d
	}
	return bad == 0 && clean
}

// transpose turns the first rows rows of the row-major staging into a
// chunk's packed SNP-major form. Four rows at a time pack into one row of
// quad bytes, eight columns to a 64-bit OR (codes are two bits, so the
// shifts stay inside their bytes); what is left to transpose is a quarter
// of the bytes, and it goes through a tile: a quad row is written down
// the tile's columns, all inside L1, and each tile column then leaves as
// one run of consecutive bytes. Writing quad bytes straight to their SNPs
// would touch a new cache line per byte. Where t.vector is set, a tile
// packs and transposes in registers instead (the AVX-512 body), a whole
// one straight into the chunk.
func (t *rawTokenizer) transpose(rows int) []byte {
	m := t.m
	stride := (rows + 3) / 4
	clear(t.rows[rows*m : 4*stride*m]) // the last quad's missing rows pack as zeros
	out := make([]byte, m*stride)
	tile := &t.tile
	for q0 := 0; q0 < stride; q0 += rawTile {
		qb := min(rawTile, stride-q0)
		for c0 := 0; c0 < m; c0 += rawTile {
			cb := min(rawTile, m-c0)
			switch {
			case t.vector && qb == rawTile && cb == rawTile:
				src := t.rows[4*q0*m+c0 : 4*(q0+rawTile)*m]
				dst := out[c0*stride+q0 : (c0+rawTile-1)*stride+q0+rawTile]
				transposeTileAVX512(&dst[0], stride, &src[0], m, rawTile, tile)
				continue
			case t.vector:
				// A cut tile reads up to a tile's width past its last
				// staged row and transposes in place.
				src := t.rows[4*q0*m+c0 : 4*(q0+qb)*m+rawTile]
				transposeTileAVX512(&tile[0], rawTile, &src[0], m, qb, tile)
			default:
				for q := 0; q < qb; q++ {
					r := t.rows[4*(q0+q)*m+c0:]
					r0, r1, r2, r3 := r[:cb], r[m:][:cb], r[2*m:][:cb], r[3*m:][:cb]
					col := tile[q:]
					c := 0
					for ; c+8 <= cb; c += 8 {
						x := binary.LittleEndian.Uint64(r0[c:]) | binary.LittleEndian.Uint64(r1[c:])<<2 |
							binary.LittleEndian.Uint64(r2[c:])<<4 | binary.LittleEndian.Uint64(r3[c:])<<6
						for k := 0; k < 8; k++ {
							col[(c+k)*rawTile] = byte(x >> (8 * k))
						}
					}
					for ; c < cb; c++ {
						col[c*rawTile] = r0[c] | r1[c]<<2 | r2[c]<<4 | r3[c]<<6
					}
				}
			}
			for c := 0; c < cb; c++ {
				copy(out[(c0+c)*stride+q0:][:qb], tile[c*rawTile:])
			}
		}
	}
	return out
}
