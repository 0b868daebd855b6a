package contingency

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// referencePlaneCounts counts combo AND plane b one sample (bit) at a
// time over the first samples bits.
func referencePlaneCounts(combo, planes []uint64, samples int) (out [PlaneBatch]int32) {
	n := len(combo)
	for b := range out {
		for s := 0; s < samples; s++ {
			if combo[s/64]>>(s%64)&1 != 0 && planes[b*n+s/64]>>(s%64)&1 != 0 {
				out[b]++
			}
		}
	}
	return out
}

// planeCounts runs CountPlanes with one body; out arrives dirty and
// must be overwritten.
func planeCounts(vector bool, combo, planes []uint64) (out [PlaneBatch]int32) {
	for i := range out {
		out[i] = -7
	}
	countPlanes(&out, combo, planes, vector)
	return out
}

// TestCountPlanesMatchesReference is the differential test of the plane
// counter: for every plane length from 0 to 300 words (every residue of
// the 8-word vector, many vectors deep), on slices that start one word
// into their arrays (so no load is 64-byte aligned), over random,
// all-zero, all-one and pad-carrying planes, each body must equal the
// sample-by-sample count. The pad-carrying shapes end 1..63 samples
// short of the last word with the combo's pad cleared, as the loaders
// leave it, and the case planes' pad set: pad bits of a case plane must
// never reach a count.
func TestCountPlanesMatchesReference(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			skipWithoutAssembly(t, body.oracle)
			r := rand.New(rand.NewSource(90))
			fill := func(p []uint64, kind int) {
				for w := range p {
					switch kind {
					case 0:
						p[w] = r.Uint64()
					case 1:
						p[w] = 0
					default:
						p[w] = ^uint64(0)
					}
				}
			}
			shapes := []struct {
				name          string
				combo, planes int // 0 random, 1 all-zero, 2 all-one
				pad           int
			}{
				{"random", 0, 0, 0},
				{"combo all zero", 1, 0, 0},
				{"combo all one", 2, 0, 0},
				{"planes all zero", 0, 1, 0},
				{"all one", 2, 2, 0},
				{"pad 1", 0, 0, 1},
				{"pad 63, planes all one", 0, 2, 63},
				{"pad 17, all one", 2, 2, 17},
			}
			for n := 0; n <= 300; n++ {
				for _, sh := range shapes {
					samples := 64*n - sh.pad
					if samples < 0 {
						continue
					}
					combo := make([]uint64, n+1)[1:]
					planes := make([]uint64, PlaneBatch*n+1)[1:]
					fill(combo, sh.combo)
					fill(planes, sh.planes)
					clearTail(samples, combo)
					want := referencePlaneCounts(combo, planes, samples)
					if got := planeCounts(!body.oracle, combo, planes); got != want {
						t.Fatalf("n=%d %s: counts differ from the reference\ngot  %v\nwant %v", n, sh.name, got, want)
					}
				}
			}
		})
	}
}

// FuzzCountPlanes feeds arbitrary plane contents, lengths and
// alignments to both bodies: they must agree with each other and with
// the sample-by-sample reference.
func FuzzCountPlanes(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 9*8*9), uint8(1))
	seed := make([]byte, 9*8*37)
	rand.New(rand.NewSource(91)).Read(seed)
	f.Add(seed, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		n := len(data) / ((1 + PlaneBatch) * 8)
		if n > 512 {
			n = 512
		}
		// skip%4 words of slack move both operands off vector alignment.
		slack := int(skip % 4)
		combo := make([]uint64, slack+n)[slack:]
		planes := make([]uint64, slack+PlaneBatch*n)[slack:]
		for w := range combo {
			combo[w] = binary.LittleEndian.Uint64(data[w*8:])
		}
		for w := range planes {
			planes[w] = binary.LittleEndian.Uint64(data[(n+w)*8:])
		}
		want := referencePlaneCounts(combo, planes, 64*n)
		if got := planeCounts(false, combo, planes); got != want {
			t.Fatalf("n=%d: portable body differs from the reference\ngot  %v\nwant %v", n, got, want)
		}
		if got := planeCounts(hasAVX512, combo, planes); got != want {
			t.Fatalf("n=%d: %s body differs from the reference\ngot  %v\nwant %v", n, Kernel(), got, want)
		}
	})
}
