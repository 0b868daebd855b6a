package trigene_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"trigene"
)

// binaryCorpus is one real Report per shape the binary codec carries:
// every backend, the blocks only some runs set (GPU stats, hetero split,
// screen audit, trace, permutation results) and a shard.
func binaryCorpus(t testing.TB) map[string]*trigene.Report {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 24, Samples: 900, Seed: 11, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{3, 9, 15},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out := make(map[string]*trigene.Report)
	for name, opts := range map[string][]trigene.Option{
		"cpu V4F shard":  {trigene.WithApproach(trigene.V4Fused), trigene.WithTopK(5), trigene.WithShard(1, 3)},
		"cpu order 2":    {trigene.WithOrder(2), trigene.WithTopK(3), trigene.WithObjective("mi")},
		"gpusim":         {trigene.WithBackend(trigene.GPUSim(gpu)), trigene.WithTopK(4), trigene.WithShard(0, 2)},
		"baseline":       {trigene.WithBackend(trigene.Baseline()), trigene.WithTopK(2)},
		"hetero":         {trigene.WithBackend(trigene.Hetero()), trigene.WithTopK(3)},
		"pinned screen":  {trigene.WithScreen(trigene.ScreenSpec{Survivors: []int{0, 3, 5, 9, 12, 15, 20}}), trigene.WithTopK(3)},
		"screened":       {trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: 8, SeedPairs: 2}), trigene.WithTopK(3)},
		"traced":         {trigene.WithTrace(), trigene.WithTopK(3)},
		"empty shard":    {trigene.WithOrder(4), trigene.WithShard(5, 7)},
		"gini order 4":   {trigene.WithOrder(4), trigene.WithObjective("gini"), trigene.WithTopK(2)},
		"one worker V3F": {trigene.WithApproach(trigene.V3Fused), trigene.WithWorkers(1)},
		"all defaults":   nil,
		"deep top-K":     {trigene.WithTopK(40), trigene.WithShard(2, 3)},
		"gpusim traced":  {trigene.WithBackend(trigene.GPUSim(gpu)), trigene.WithTrace()},
		"hetero sharded": {trigene.WithBackend(trigene.Hetero()), trigene.WithShard(1, 2)},
	} {
		rep, err := sess.Search(ctx, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rep
	}
	spec := &trigene.PermSpec{SNPs: [][]int{{3, 9, 15}, {0, 1}}, Permutations: 40, Seed: 3}
	ps, err := sess.PermutationSlice(ctx, spec.SNPs, 0, 40, trigene.WithPermutations(40), trigene.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := trigene.FinalizePerms(spec, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	out["perm"] = perm
	for name, has := range map[string]bool{
		"cpu V4F shard": out["cpu V4F shard"].Shard != nil,
		"gpusim":        out["gpusim"].GPU != nil,
		"hetero":        out["hetero"].Hetero != nil,
		"pinned screen": out["pinned screen"].Screen != nil,
		"screened":      out["screened"].Screen != nil,
		"traced":        out["traced"].Trace != nil,
		"perm":          out["perm"].Perm != nil,
	} {
		if !has {
			t.Fatalf("%s: the Report lacks the block it is in the corpus for", name)
		}
	}
	return out
}

// TestReportBinaryRoundTrip: every Report of the corpus decodes from its
// binary form into a Report that marshals to byte-identical JSON and
// re-encodes to the same bytes.
func TestReportBinaryRoundTrip(t *testing.T) {
	corpus := binaryCorpus(t)
	for name, rep := range corpus {
		bin, err := rep.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got trigene.Report
		if err := got.UnmarshalBinary(bin); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, want) {
			t.Errorf("%s: decoded Report marshals to\n%s\nwant\n%s", name, have, want)
		}
		again, err := got.MarshalBinary()
		if err != nil || !bytes.Equal(again, bin) {
			t.Errorf("%s: re-encoding differs (err %v)", name, err)
		}
		if len(bin) >= len(want) {
			t.Errorf("%s: binary form %d bytes, JSON %d", name, len(bin), len(want))
		}
	}

	// A tile post or journal record of an autotuned run carries a plan
	// block, the only rare block such a run set. It decodes to the
	// Report without it, with and without the keys plans wrote while
	// they still cut the run.
	rep := corpus["all defaults"]
	bin, err := rep.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []string{
		`{"plan":{"backend":"cpu","approach":"V4F","workers":4,"cpuFraction":1,"predictedCpuGElems":64.5,"predictedCombosPerSec":7.2e+07,"cpuDevice":"HOST","reason":"HOST runs V4F at 64.5 G elem/s modeled"}}`,
		`{"plan":{"backend":"cpu","approach":"V4F","workers":4,"grain":4096,"cpuFraction":1,"predictedCpuGElems":64.5,"predictedCombosPerSec":7.2e+07,"predictedTilesPerSec":48.83,"cpuDevice":"HOST"}}`,
	} {
		var got trigene.Report
		if err := got.UnmarshalBinary(append(bin[:len(bin):len(bin)], plan...)); err != nil {
			t.Fatalf("legacy plan block %s: %v", plan, err)
		}
		if have, err := json.Marshal(&got); err != nil || !bytes.Equal(have, want) {
			t.Errorf("legacy plan block: decoded Report marshals to\n%s\nwant\n%s (err %v)", have, want, err)
		}
		if again, err := got.MarshalBinary(); err != nil || !bytes.Equal(again, bin) {
			t.Errorf("legacy plan block: re-encoding kept it (err %v)", err)
		}
	}
}

// TestReportBinaryRefusals: truncations of a real Report, an unknown
// version, lengths no input could hold and non-finite floats are
// refused, not read.
func TestReportBinaryRefusals(t *testing.T) {
	corpus := binaryCorpus(t)
	bin, err := corpus["gpusim"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// An unsharded Report without rare blocks ends in its shard marker.
	plain, err := corpus["all defaults"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	badShard := append(plain[:len(plain)-1:len(plain)-1], 2)
	nonFinite := func(edit func(r *trigene.Report)) []byte {
		r := *corpus["all defaults"]
		edit(&r)
		b, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var r trigene.Report
	// Every cut inside the core fields; the rare blocks' JSON starts
	// where the shard's space string ends.
	core := bytes.IndexByte(bin, '{')
	for n := 0; n < core; n++ {
		if err := r.UnmarshalBinary(bin[:n]); err == nil {
			t.Errorf("a cut at %d of %d bytes decoded", n, len(bin))
		}
	}
	if err := r.UnmarshalBinary(bin[:len(bin)-1]); err == nil {
		t.Error("a cut inside the rare blocks decoded")
	}
	for name, in := range map[string][]byte{
		"version 2":        append([]byte{2}, bin[1:]...),
		"backend of 4 GiB": {1, 0x80, 0x80, 0x80, 0x80, 0x10, 'c'},
		"top-K of 2^60":    append(append([]byte{1, 0, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10), make([]byte, 64)...),
		"shard marker 2":   badShard,
		"Inf score":        nonFinite(func(r *trigene.Report) { r.Best.Score = math.Inf(1) }),
		"NaN elements":     nonFinite(func(r *trigene.Report) { r.Elements = math.NaN() }),
	} {
		if err := r.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzReportBinary: arbitrary bytes never panic the decoder, never make
// it allocate more than a bound set by the input's length (a length
// prefix cannot ask for gigabytes), and an accepted input re-encodes to
// bytes that decode to a Report encoding the same again.
func FuzzReportBinary(f *testing.F) {
	corpus := binaryCorpus(f)
	for _, rep := range corpus {
		bin, err := rep.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	// A tile post of an autotuned run: a rare section holding only the
	// plan block, which decodes and is dropped.
	plain, err := corpus["all defaults"].MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(plain, `{"plan":{"backend":"cpu","approach":"V4F","predictedCombosPerSec":7.2e+07}}`...))
	for _, seed := range []string{"", "\x01", "\x02", "\x01\xff\xff\xff\xff\x0f", "\x01\x00\x00\x00\x06\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x0f"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var r trigene.Report
		err := r.UnmarshalBinary(data)
		runtime.ReadMemStats(&ms)
		if alloc, bound := ms.TotalAlloc-before, uint64(1<<20+64*len(data)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		bin, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted Report does not re-encode: %v", err)
		}
		var again trigene.Report
		if err := again.UnmarshalBinary(bin); err != nil {
			t.Fatalf("re-encoded Report does not decode: %v", err)
		}
		if rebin, err := again.MarshalBinary(); err != nil || !bytes.Equal(rebin, bin) {
			t.Fatalf("re-encoded Report decodes to another (err %v)", err)
		}
	})
}
