package trigene

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Compact binary codec for Report: the form a cluster search tile's
// Report travels in from worker to coordinator and rests in the
// coordinator's journal and snapshots. JSON (report_json.go) stays the
// public format; this one exists because a tile's Report is encoded once
// and decoded once per tile, next to a search of a few hundred
// microseconds.
//
// Layout, version 1. Integers are varints (encoding/binary: uvarint for
// lengths and counts, zig-zag varint for signed values), floats the
// little-endian bits of their float64:
//
//	version            byte (1)
//	backend            string (uvarint length, then the bytes)
//	approach           string
//	objective          string
//	order, topKLimit   varint
//	best               candidate
//	topK               uvarint count, then that many candidates
//	combinations       varint
//	elements           float64
//	durationNs         varint
//	elementsPerSec     float64
//	shard              byte 0, or byte 1 then index, count, lo, hi
//	                   (varints) and space (string)
//	rare blocks        the rest of the input: nothing, or one JSON object
//	                   holding whichever of gpu, hetero, plan, screen,
//	                   perm and trace are set, under their Report JSON keys
//
// A candidate is uvarint(len(SNPs)+1) — 0 for nil SNPs, which JSON
// spells null — then each SNP as a uvarint of its bits, then the score.
// So every Report JSON can carry round-trips, down to the JSON it
// marshals to. Floats are finite, as JSON's are: a decoder refuses NaN
// and ±Inf, so what it accepts marshals to JSON and ranks in a merge. A
// decoder never allocates more than a small multiple of its input: every
// count is checked against the bytes left before anything is made.

// reportBinaryVersion is the leading byte of the current layout.
const reportBinaryVersion = 1

// reportRare is the JSON section of the rarely set blocks.
type reportRare struct {
	GPU    *GPUStats   `json:"gpu,omitempty"`
	Hetero *HeteroInfo `json:"hetero,omitempty"`
	Screen *ScreenInfo `json:"screen,omitempty"`
	Perm   *PermInfo   `json:"perm,omitempty"`
	Trace  *TraceInfo  `json:"trace,omitempty"`
}

// MarshalBinary encodes the Report in the compact binary form.
func (r Report) MarshalBinary() ([]byte, error) {
	// A guess at the size from what the Report holds, not from Order: a
	// decoded Report's Order is whatever its input said.
	size := 64 + len(r.Backend) + len(r.Approach) + len(r.Objective) + (len(r.TopK)+1)*(10+2*len(r.Best.SNPs))
	b := make([]byte, 0, size)
	b = append(b, reportBinaryVersion)
	b = appendString(b, r.Backend)
	b = appendString(b, r.Approach)
	b = appendString(b, r.Objective)
	b = binary.AppendVarint(b, int64(r.Order))
	b = binary.AppendVarint(b, int64(r.topK))
	b = appendCandidate(b, r.Best)
	b = binary.AppendUvarint(b, uint64(len(r.TopK)))
	for _, c := range r.TopK {
		b = appendCandidate(b, c)
	}
	b = binary.AppendVarint(b, r.Combinations)
	b = appendFloat(b, r.Elements)
	b = binary.AppendVarint(b, int64(r.Duration))
	b = appendFloat(b, r.ElementsPerSec)
	if s := r.Shard; s == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(s.Index))
		b = binary.AppendVarint(b, int64(s.Count))
		b = binary.AppendVarint(b, s.Lo)
		b = binary.AppendVarint(b, s.Hi)
		b = appendString(b, s.Space)
	}
	rare := reportRare{GPU: r.GPU, Hetero: r.Hetero, Screen: r.Screen, Perm: r.Perm, Trace: r.Trace}
	if rare != (reportRare{}) {
		raw, err := json.Marshal(rare)
		if err != nil {
			return nil, err
		}
		b = append(b, raw...)
	}
	return b, nil
}

// UnmarshalBinary decodes a Report from the compact binary form,
// refusing an unknown version, truncated or overlong fields, non-finite
// floats, and rare blocks that are not one JSON object.
func (r *Report) UnmarshalBinary(data []byte) error {
	d := binaryDecoder{b: data}
	if v := d.byte(); d.err == nil && v != reportBinaryVersion {
		return fmt.Errorf("trigene: binary report version %d (this build reads %d)", v, reportBinaryVersion)
	}
	out := Report{
		Backend:   d.string(),
		Approach:  d.string(),
		Objective: d.string(),
		Order:     d.int(),
		topK:      d.int(),
		Best:      d.candidate(),
	}
	// A candidate takes at least its length byte and its score.
	if n := d.count(9); n > 0 {
		out.TopK = make([]SearchCandidate, n)
		for i := range out.TopK {
			out.TopK[i] = d.candidate()
		}
	}
	out.Combinations = d.varint()
	out.Elements = d.float()
	out.Duration = time.Duration(d.varint())
	out.ElementsPerSec = d.float()
	switch d.byte() {
	case 0:
	case 1:
		out.Shard = &ShardInfo{Index: d.int(), Count: d.int(), Lo: d.varint(), Hi: d.varint(), Space: d.string()}
	default:
		d.fail("bad shard marker")
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) > 0 {
		var rare reportRare
		if err := json.Unmarshal(d.b, &rare); err != nil {
			return fmt.Errorf("trigene: binary report: rare blocks: %w", err)
		}
		out.GPU, out.Hetero, out.Screen, out.Perm, out.Trace = rare.GPU, rare.Hetero, rare.Screen, rare.Perm, rare.Trace
	}
	*r = out
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendCandidate(b []byte, c SearchCandidate) []byte {
	if c.SNPs == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(c.SNPs))+1)
		for _, s := range c.SNPs {
			b = binary.AppendUvarint(b, uint64(s))
		}
	}
	return appendFloat(b, c.Score)
}

// binaryDecoder reads the binary Report form front to back. The first
// error sticks: later reads return zero values, and the caller checks
// err once.
type binaryDecoder struct {
	b   []byte
	err error
}

func (d *binaryDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("trigene: binary report: %s", what)
	}
	d.b = nil
}

func (d *binaryDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *binaryDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binaryDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binaryDecoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("int out of range")
		return 0
	}
	return int(v)
}

// count reads a length whose items take at least each bytes, and
// refuses one the rest of the input cannot hold.
func (d *binaryDecoder) count(each int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/each) {
		d.fail("length past the end")
		return 0
	}
	return int(v)
}

func (d *binaryDecoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *binaryDecoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float")
		return 0
	}
	d.b = d.b[8:]
	return v
}

func (d *binaryDecoder) candidate() SearchCandidate {
	var c SearchCandidate
	// The SNP count is stored plus one; each SNP takes at least a byte.
	if n := d.uvarint(); n > 0 {
		if n-1 > uint64(len(d.b)) {
			d.fail("candidate length past the end")
			return c
		}
		c.SNPs = make([]int, n-1)
		for i := range c.SNPs {
			c.SNPs[i] = int(d.uvarint())
		}
	}
	c.Score = d.float()
	return c
}
