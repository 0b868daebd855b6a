package trigene_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"trigene"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/reports/*.json from this build")

// The golden Report corpus: one fixed matrix of searches over three
// generated datasets, whose Reports — timing stripped, scores as float64
// bits — are committed under testdata/reports/. Every change must leave
// it byte-for-byte as it is, with and without -tags purego; a change
// that moves a Report on purpose reruns with -update-golden and names
// the keys that moved.
//
// The datasets are drawn by the seeded generator at test time, so no
// genotype file is committed:
//   - tall: many SNPs over few samples, so ties and per-combination costs
//     dominate;
//   - wide: few SNPs over many 64-bit words;
//   - ragged: sample and SNP counts off every word and block boundary.
var goldenShapes = []struct {
	name      string
	cfg       trigene.GenConfig
	survivors int
}{
	{"tall", trigene.GenConfig{SNPs: 32, Samples: 128, Seed: 21}, 12},
	{"wide", trigene.GenConfig{SNPs: 14, Samples: 4096, Seed: 22}, 8},
	{"ragged", trigene.GenConfig{SNPs: 27, Samples: 777, Seed: 23, MAFMin: 0.2, MAFMax: 0.5,
		Interaction: &trigene.Interaction{SNPs: [3]int{4, 13, 22}, Penetrance: trigene.ThresholdPenetrance(3, 0.1, 0.9)}}, 12},
}

// goldenRow is one search of the matrix, named by its key.
type goldenRow struct {
	key  string
	opts []trigene.Option
	// workTotals keeps only the ranking and the work totals: the
	// hetero backend's device stats and realized split follow
	// work-stealing timing.
	workTotals bool
	// simulated rows run once: the simulated device has no worker pool.
	simulated bool
}

// goldenRows lists the matrix for one dataset:
//   - cpu: V3F/V4F at order 3 and the order-2 and order-4
//     searches, under K2, MI and Gini, unsharded and as shard 1 of 3,
//     plus the screened search with and without seed pairs;
//   - gpusim: kernels V1..V4 and V4F on GN1 and on the 64-wide-warp GA1,
//     each with its full modeled stats, and V4 as shard 1 of 3;
//   - baseline and hetero, unsharded and as shard 1 of 3.
func goldenRows(t *testing.T, survivors int) []goldenRow {
	var rows []goldenRow
	add := func(key string, workTotals bool, opts ...trigene.Option) {
		rows = append(rows, goldenRow{key: key, opts: opts, workTotals: workTotals})
	}
	addSimulated := func(key string, opts ...trigene.Option) {
		rows = append(rows, goldenRow{key: key, opts: opts, simulated: true})
	}
	addSharded := func(key string, workTotals bool, opts ...trigene.Option) {
		add(key, workTotals, opts...)
		add(key+"/shard1of3", workTotals, append(opts, trigene.WithShard(1, 3))...)
	}
	for _, obj := range []string{"k2", "mi", "gini"} {
		o := trigene.WithObjective(obj)
		for _, ap := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
			addSharded(fmt.Sprintf("cpu/%s/order3/%s", obj, ap), false, o, trigene.WithApproach(ap))
		}
		for _, order := range []int{2, 4} {
			addSharded(fmt.Sprintf("cpu/%s/order%d", obj, order), false, o, trigene.WithOrder(order))
		}
		add(fmt.Sprintf("cpu/%s/screen", obj), false, o,
			trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: survivors}))
		add(fmt.Sprintf("cpu/%s/screen-seeds", obj), false, o,
			trigene.WithScreen(trigene.ScreenSpec{MaxSurvivors: survivors, SeedPairs: 4}))
	}
	for _, id := range []string{"GN1", "GA1"} {
		dev, err := trigene.GPUByID(id)
		if err != nil {
			t.Fatal(err)
		}
		b := trigene.WithBackend(trigene.GPUSim(dev))
		for _, ap := range []trigene.Approach{trigene.V1Naive, trigene.V2Split, trigene.V3Blocked, trigene.V4Vector, trigene.V4Fused} {
			addSimulated(fmt.Sprintf("gpusim:%s/%s", id, ap), b, trigene.WithApproach(ap))
		}
		addSimulated(fmt.Sprintf("gpusim:%s/V4/shard1of3", id), b, trigene.WithShard(1, 3))
	}
	addSharded("baseline", false, trigene.WithBackend(trigene.Baseline()))
	addSharded("hetero", true, trigene.WithBackend(trigene.Hetero()))
	return rows
}

// goldenCandidate is a SearchCandidate with its score as float64 bits.
type goldenCandidate struct {
	SNPs  []int  `json:"snps"`
	Score string `json:"score"`
}

// goldenScreen is ScreenInfo without its stage timings.
type goldenScreen struct {
	PairsScanned int64  `json:"pairsScanned"`
	Survivors    int    `json:"survivors"`
	SeedPairs    int    `json:"seedPairs,omitempty"`
	Threshold    string `json:"threshold"`
	Declined     bool   `json:"declined,omitempty"`
	Reason       string `json:"reason,omitempty"`
}

// goldenReport is a Report without its host timing: duration and
// measured throughput are dropped; gpusim's modeled stats stay.
type goldenReport struct {
	Backend      string             `json:"backend"`
	Approach     string             `json:"approach"`
	Objective    string             `json:"objective"`
	Order        int                `json:"order"`
	Best         goldenCandidate    `json:"best"`
	TopK         []goldenCandidate  `json:"topK"`
	Combinations int64              `json:"combinations"`
	Elements     float64            `json:"elements"`
	Shard        *trigene.ShardInfo `json:"shard,omitempty"`
	GPU          *trigene.GPUStats  `json:"gpu,omitempty"`
	Screen       *goldenScreen      `json:"screen,omitempty"`
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func goldenCand(c trigene.SearchCandidate) goldenCandidate {
	return goldenCandidate{SNPs: c.SNPs, Score: floatBits(c.Score)}
}

func goldenOf(rep *trigene.Report, workTotals bool) goldenReport {
	g := goldenReport{
		Backend:      rep.Backend,
		Approach:     rep.Approach,
		Objective:    rep.Objective,
		Order:        rep.Order,
		Best:         goldenCand(rep.Best),
		TopK:         []goldenCandidate{},
		Combinations: rep.Combinations,
		Elements:     rep.Elements,
		Shard:        rep.Shard,
	}
	for _, c := range rep.TopK {
		g.TopK = append(g.TopK, goldenCand(c))
	}
	if !workTotals {
		g.GPU = rep.GPU
	}
	if sc := rep.Screen; sc != nil {
		g.Screen = &goldenScreen{
			PairsScanned: sc.PairsScanned,
			Survivors:    sc.Survivors,
			SeedPairs:    sc.SeedPairs,
			Threshold:    floatBits(sc.Threshold),
			Declined:     sc.Declined,
			Reason:       sc.Reason,
		}
	}
	return g
}

// goldenFile renders one dataset's rows as a JSON object, one key per
// line in key order, so a moved Report is a one-line diff.
func goldenFile(t *testing.T, rows map[string]goldenReport) []byte {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(rows[k])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %s", strconv.Quote(k), v)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes()
}

func TestGoldenReports(t *testing.T) {
	ctx := context.Background()
	for _, shape := range goldenShapes {
		t.Run(shape.name, func(t *testing.T) {
			mx, err := trigene.Generate(shape.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := trigene.NewSession(mx)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]goldenReport{}
			for _, row := range goldenRows(t, shape.survivors) {
				// One and two workers must give the same Report.
				workerCounts := []int{1, 2}
				if row.simulated {
					workerCounts = workerCounts[:1]
				}
				var first []byte
				for _, workers := range workerCounts {
					opts := append([]trigene.Option{trigene.WithTopK(5), trigene.WithWorkers(workers)}, row.opts...)
					rep, err := s.Search(ctx, opts...)
					if err != nil {
						t.Fatalf("%s: %v", row.key, err)
					}
					g := goldenOf(rep, row.workTotals)
					enc, err := json.Marshal(g)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first, got[row.key] = enc, g
					} else if !bytes.Equal(enc, first) {
						t.Fatalf("%s: 2 workers give\n  %s\n1 worker gives\n  %s", row.key, enc, first)
					}
				}
			}
			path := filepath.Join("testdata", "reports", shape.name+".json")
			data := goldenFile(t, got)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to generate)", err)
			}
			if !bytes.Equal(data, want) {
				diffGolden(t, path, want, data)
			}
		})
	}
}

// diffGolden reports the first key, in key order, whose Report differs
// from the committed one. The committed score bits are amd64's, where
// Go never fuses a multiply and an add. On a GOARCH whose compiler does
// (arm64, ppc64, s390x), a score may land one ulp away, so there the
// SNPs must match and each score may differ by at most one ulp.
func diffGolden(t *testing.T, path string, want, got []byte) {
	t.Helper()
	var w, g map[string]json.RawMessage
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(w)+len(g))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		wv, gv := w[k], g[k]
		if bytes.Equal(wv, gv) {
			continue
		}
		if runtime.GOARCH != "amd64" && withinOneULP(wv, gv) {
			continue
		}
		if wv == nil {
			wv = json.RawMessage("(missing)")
		}
		if gv == nil {
			gv = json.RawMessage("(missing)")
		}
		t.Fatalf("%s: first differing key %q (rerun with -update-golden if the change is meant):\nwant %s\ngot  %s", path, k, wv, gv)
	}
	if runtime.GOARCH == "amd64" {
		t.Fatalf("%s: same Reports laid out differently (rerun with -update-golden)", path)
	}
}

// withinOneULP reports whether two encoded Reports differ only in
// scores, each by at most one ulp.
func withinOneULP(a, b json.RawMessage) bool {
	var ra, rb goldenReport
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil || len(ra.TopK) != len(rb.TopK) {
		return false
	}
	near := func(x, y *string) bool {
		u, errx := strconv.ParseUint(*x, 16, 64)
		v, erry := strconv.ParseUint(*y, 16, 64)
		*x, *y = "", ""
		d := int64(u - v)
		return errx == nil && erry == nil && d >= -1 && d <= 1
	}
	ok := near(&ra.Best.Score, &rb.Best.Score)
	for i := range ra.TopK {
		ok = near(&ra.TopK[i].Score, &rb.TopK[i].Score) && ok
	}
	if ra.Screen != nil && rb.Screen != nil {
		ok = near(&ra.Screen.Threshold, &rb.Screen.Threshold) && ok
	}
	return ok && reflect.DeepEqual(ra, rb)
}
