// Package datafile is the CLI tools' shared dataset loader: one place
// for format dispatch and magic-byte auto-detection, so cmd/epistasis
// and cmd/trigened cannot drift apart on which inputs they accept —
// nor, through SearchFlags, on the flags that describe a search.
//
// Supported formats: the trigene text and binary formats, the packed
// encoded-dataset .tpack format, PLINK .ped, PLINK binary .bed (with
// its .bim/.fam sidecars), PLINK additive-recode .raw, and the VCF
// subset (which needs a phenotype sidecar file, since VCF carries no
// case-control status).
package datafile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"trigene"
	"trigene/internal/dataset"
	"trigene/internal/store"
)

// Read loads the dataset at path ("-" for stdin). format is "auto",
// "ped", "raw", "vcf", "bed" or "pack"; auto-detection distinguishes
// the trigene binary format (TGB1 magic), the packed .tpack format
// (TPK1 magic), PLINK binary .bed (0x6c 0x1b 0x01 magic; needs .bim
// and .fam sidecars next to the .bed), .raw (a FID header, space- or
// tab-delimited), VCF (## meta lines or a #CHROM header) and falls
// back to the trigene text format. Tools that search should prefer
// ReadSession, which keeps a pack's prebuilt encodings instead of
// just its matrix. phenPath names the VCF phenotype sidecar (one 0/1
// per sample, whitespace separated).
func Read(path, format, phenPath string) (*dataset.Matrix, error) {
	if format == "bed" || (format == "auto" && path != "-" && isBEDFile(path)) {
		mx, err := readBEDPath(path)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		return mx, nil
	}
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	mx, err := ReadFrom(r, format, phenPath)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return mx, nil
}

// ReadFrom decodes a dataset from r with the same format dispatch and
// auto-detection as Read — the stream-level entry the fuzz targets
// drive, so detection is exercised on arbitrary bytes without a
// filesystem.
func ReadFrom(r io.Reader, format, phenPath string) (*dataset.Matrix, error) {
	br := bufio.NewReader(r)
	return readFrom(br, r, format, phenPath)
}

// readFrom is ReadFrom over br, a bufio.Reader over r that has been
// peeked at but not read. The trigene text and binary readers read br
// with r's length, when it is known (see sized).
func readFrom(br *bufio.Reader, r io.Reader, format, phenPath string) (*dataset.Matrix, error) {
	switch format {
	case "pack":
		st, err := store.ReadPack(br)
		if err != nil {
			return nil, err
		}
		return st.Matrix(), nil
	case "ped":
		return dataset.ReadPED(br)
	case "raw":
		return dataset.ReadRAW(br)
	case "vcf":
		return readVCFWithPhen(br, phenPath)
	case "bed":
		return nil, errBEDStream
	case "auto":
		magic, err := br.Peek(4)
		if err != nil {
			return nil, fmt.Errorf("detecting format: %w", err)
		}
		switch {
		case bytes.Equal(magic, []byte("TGB1")):
			return dataset.ReadBinary(sized(br, r))
		case store.IsPack(magic):
			st, err := store.ReadPack(br)
			if err != nil {
				return nil, err
			}
			return st.Matrix(), nil
		case dataset.IsBED(magic):
			return nil, errBEDStream
		case isRawHeader(magic):
			return dataset.ReadRAW(br)
		case magic[0] == '#' && magic[1] == '#', bytes.Equal(magic, []byte("#CHR")):
			return readVCFWithPhen(br, phenPath)
		default:
			return dataset.ReadText(sized(br, r))
		}
	default:
		return nil, fmt.Errorf("unknown input format %q (want auto, ped, raw, vcf, bed or pack)", format)
	}
}

// errBEDStream rejects .bed input arriving as a bare stream: the
// genotype blob is useless without the .bim/.fam sidecars, which only
// a filesystem path can locate.
var errBEDStream = fmt.Errorf("bed input needs its .bim and .fam sidecars next to the .bed file; pass the .bed path directly instead of streaming it")

// FormatsHelp is the shared -informat flag description.
const FormatsHelp = "input format: auto (trigene text/binary, .tpack, .bed, VCF or .raw), ped, raw, vcf, bed or pack"

// ReadSession loads the dataset at path ("-" for stdin) as a
// ready-to-search Session. A packed .tpack input (format "pack", or
// auto-detected from the TPK1 magic) opens the encoded-dataset store
// directly — memory-mapped for files, so no re-parse; a PLINK .raw input (format "raw", or auto-detected
// from its FID header) becomes a store over the reader's packed
// genotypes, with no Matrix built; every other format parses a matrix
// and builds a fresh Session around it.
func ReadSession(path, format, phenPath string) (*trigene.Session, error) {
	if format == "bed" || (format == "auto" && path != "-" && isBEDFile(path)) {
		mx, err := readBEDPath(path)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		return trigene.NewSession(mx)
	}
	if path != "-" && (format == "pack" || (format == "auto" && isPackFile(path))) {
		sess, err := trigene.OpenPack(path)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		return sess, nil
	}
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	sess, err := ReadSessionFrom(r, format, phenPath)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return sess, nil
}

// ReadSessionFrom decodes a Session from a stream with the same
// dispatch as ReadSession (heap-backed for packs; streams cannot be
// memory-mapped).
func ReadSessionFrom(r io.Reader, format, phenPath string) (*trigene.Session, error) {
	br := bufio.NewReader(r)
	if format == "auto" {
		if magic, err := br.Peek(4); err == nil {
			switch {
			case store.IsPack(magic):
				format = "pack"
			case isRawHeader(magic):
				format = "raw"
			}
		}
	}
	switch format {
	case "pack":
		return trigene.ReadPack(br)
	case "raw":
		return trigene.ReadRAWSession(br)
	}
	mx, err := readFrom(br, r, format, phenPath)
	if err != nil {
		return nil, err
	}
	return trigene.NewSession(mx)
}

// sized returns br, a bufio.Reader over r, as a reader that also tells
// through Len how many bytes it has left, when r's length is known: a
// regular file's size less its offset, or a Len method of r's own, plus
// what br holds read ahead of r. dataset's text and binary readers
// allocate a section whole only when a Len says the input holds it, and
// otherwise grow it as it arrives; the bufio wrap alone would hide the
// length.
func sized(br *bufio.Reader, r io.Reader) io.Reader {
	left := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		left = v.Len()
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return br
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return br
		}
		left = int(min(fi.Size()-off, math.MaxInt-int64(br.Buffered())))
	default:
		return br
	}
	return &sizedReader{br: br, left: left + br.Buffered()}
}

// sizedReader reads br and counts down left, the bytes br has left.
type sizedReader struct {
	br   *bufio.Reader
	left int
}

func (s *sizedReader) Read(p []byte) (int, error) {
	n, err := s.br.Read(p)
	s.left -= n
	return n, err
}

// Len is how many bytes are left to read.
func (s *sizedReader) Len() int { return s.left }

// readBEDPath opens a PLINK binary fileset by its .bed path,
// resolving the .bim and .fam sidecars by swapping the extension.
func readBEDPath(path string) (*dataset.Matrix, error) {
	if path == "-" {
		return nil, errBEDStream
	}
	base := strings.TrimSuffix(path, ".bed")
	bed, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer bed.Close()
	bim, err := os.Open(base + ".bim")
	if err != nil {
		return nil, fmt.Errorf("bed sidecar: %w", err)
	}
	defer bim.Close()
	fam, err := os.Open(base + ".fam")
	if err != nil {
		return nil, fmt.Errorf("bed sidecar: %w", err)
	}
	defer fam.Close()
	return dataset.ReadBED(bed, bim, fam)
}

// isBEDFile sniffs a file's magic for the PLINK binary format.
func isBEDFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [3]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return dataset.IsBED(magic[:])
}

// isPackFile sniffs a file's magic for the packed format.
func isPackFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return store.IsPack(magic[:])
}

// isRawHeader detects a PLINK .raw header from the first four bytes:
// "FID" followed by any field separator (plink emits spaces, plink2
// --export A emits tabs).
func isRawHeader(magic []byte) bool {
	return len(magic) == 4 && bytes.Equal(magic[:3], []byte("FID")) &&
		(magic[3] == ' ' || magic[3] == '\t')
}

// readVCFWithPhen pairs a VCF genotype stream with a phenotype file.
func readVCFWithPhen(r io.Reader, phenPath string) (*dataset.Matrix, error) {
	if phenPath == "" {
		return nil, fmt.Errorf("VCF input requires -phen (VCF carries no case-control status)")
	}
	raw, err := os.ReadFile(phenPath)
	if err != nil {
		return nil, err
	}
	var phen []uint8
	for _, tok := range strings.Fields(string(raw)) {
		switch tok {
		case "0":
			phen = append(phen, 0)
		case "1":
			phen = append(phen, 1)
		default:
			return nil, fmt.Errorf("phenotype file: invalid value %q (want 0 or 1)", tok)
		}
	}
	return dataset.ReadVCF(r, phen)
}
