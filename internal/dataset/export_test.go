package dataset

import (
	"bytes"
	"errors"
)

// RawText lets the external benchmark (which needs internal/store, an
// importer of this package) write the .raw text the tests read.
var RawText = rawText

// RawStage is one of the .raw reader's per-byte stages over a whole file,
// ready to run on the AVX-512 body (vector) or the Go one.
type RawStage struct {
	Name string
	Run  func(vector bool)
}

// RawStages prepares the reader's three per-byte stages over text, a .raw
// file whose sample lines all have the PLINK shape, for the external
// benchmark: decode, every sample line's codes into a row; transpose, a
// block's staged rows into a chunk, as many times as the file has blocks;
// assembly, the file's chunks into the packed sections.
func RawStages(text []byte) ([]RawStage, error) {
	header, body := cutLine(text)
	m, msg := rawHeaderLine(header)
	if m < 0 {
		return nil, errors.New(msg)
	}
	var blocks [][]byte
	for rest := body; len(rest) > 0; {
		cut := len(rest)
		if cut > rawBlockSize {
			cut = rawBlockSize + bytes.IndexByte(rest[rawBlockSize:], '\n') + 1
		}
		blocks, rest = append(blocks, rest[:cut]), rest[cut:]
	}
	var chunks []*rawChunk
	n := 0
	for _, blk := range blocks {
		tok := rawTokenizer{m: m}
		c := new(rawChunk)
		if tok.tokenize(blk, c); c.err != "" {
			return nil, errors.New(c.err)
		}
		chunks, n = append(chunks, c), n+c.rows
	}
	var tails [][]byte
	for rest := body; len(rest) > 0; {
		var ln []byte
		ln, rest = cutLine(rest)
		s := fieldScanner{ln: bytes.TrimRight(ln, " \t\r")}
		for k := 0; k < 6; k++ {
			s.next()
		}
		if tail := s.ln[s.p:]; rawFastCodes(tail, make([]uint8, m), false) {
			tails = append(tails, tail)
		} else {
			return nil, errors.New("a sample line without the PLINK shape")
		}
	}
	staged := rawTokenizer{m: m}
	staged.tokenize(blocks[0], new(rawChunk))
	rows := len(staged.phen)
	row := make([]uint8, m)
	return []RawStage{
		{"decode", func(vector bool) {
			for _, tail := range tails {
				rawFastCodes(tail, row, vector)
			}
		}},
		{"transpose", func(vector bool) {
			staged.vector = vector
			for range blocks {
				staged.transpose(rows)
			}
		}},
		{"assembly", func(vector bool) { assembleChunks(m, n, chunks, vector) }},
	}, nil
}
