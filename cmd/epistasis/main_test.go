package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trigene"
	"trigene/internal/datafile"
)

// writeDataset materializes a small planted dataset in both formats.
func writeDataset(t *testing.T, binary bool) string {
	t.Helper()
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 16, Samples: 400, Seed: 60, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{1, 7, 12},
			Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	name := "data.tg"
	if binary {
		name = "data.tgb"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if binary {
		err = trigene.WriteBinary(f, mx)
	} else {
		err = trigene.WriteText(f, mx)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextDataset(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-topk", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dataset: 16 SNPs x 400 samples") {
		t.Errorf("missing dataset line:\n%s", s)
	}
	if !strings.Contains(s, "(1,7,12)") {
		t.Errorf("planted triple not in output:\n%s", s)
	}
}

func TestRunBinaryAutodetect(t *testing.T) {
	path := writeDataset(t, true)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-approach", "V3F"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "approach V3F") {
		t.Errorf("approach line missing:\n%s", out.String())
	}
}

func TestRunGPUSimulated(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-backend", "gpusim:GN1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "simulated GN1") || !strings.Contains(s, " 1. (1,7,12)") {
		t.Errorf("GPU output wrong:\n%s", s)
	}
}

func TestRunPairsMode(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-order", "2", "-topk", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2-way:") {
		t.Errorf("pairs output wrong:\n%s", out.String())
	}
}

func TestRunObjectives(t *testing.T) {
	path := writeDataset(t, false)
	for _, obj := range []string{"k2", "mi", "gini"} {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-in", path, "-objective", obj, "-topk", "1"}, &out, &errBuf); err != nil {
			t.Errorf("objective %s: %v", obj, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeDataset(t, false)
	cases := [][]string{
		{},                                      // missing -in
		{"-in", "/nonexistent/file"},            // unreadable
		{"-in", path, "-approach", "V9"},        // bad approach
		{"-in", path, "-objective", "bogus"},    // bad objective
		{"-in", path, "-backend", "gpusim:GX9"}, // unknown device
		{"-badflag"},                            // flag error
	}
	for i, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
	// A file that is neither format.
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not a dataset at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", junk}, &out, &errBuf); err == nil {
		t.Error("junk input accepted")
	}
	// Autotuning left the tool with its -auto flag: asking for it fails
	// at flag parsing.
	if err := run([]string{"-in", path, "-auto"}, &out, &errBuf); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -auto") {
		t.Errorf("-auto: err = %v, want an undefined-flag error", err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-json", "-topk", "2", "-permute", "50"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Mode         string `json:"mode"`
		SNPs         int    `json:"snps"`
		Combinations int64  `json:"combinations"`
		Kernel       string `json:"kernel"`
		Candidates   []struct {
			SNPs  []int   `json:"snps"`
			Score float64 `json:"score"`
		} `json:"candidates"`
		PValue *float64 `json:"pValue"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if summary.SNPs != 16 || len(summary.Candidates) != 2 {
		t.Errorf("summary wrong: %+v", summary)
	}
	if summary.Kernel != trigene.Kernel() || (summary.Kernel != "avx512-vpopcntdq" && summary.Kernel != "portable") {
		t.Errorf("kernel %q, want the host's selection %q", summary.Kernel, trigene.Kernel())
	}
	if summary.Candidates[0].SNPs[0] != 1 || summary.Candidates[0].SNPs[1] != 7 || summary.Candidates[0].SNPs[2] != 12 {
		t.Errorf("best candidate %v, want planted (1,7,12)", summary.Candidates[0].SNPs)
	}
	if summary.PValue == nil || *summary.PValue > 0.1 {
		t.Errorf("pValue missing or large: %v", summary.PValue)
	}
}

// TestRunJSONEmbedsStableReport: `-json` carries the full Report in
// trigene's stable wire format — the same encoding `trigened result`
// prints — and its candidates agree with the summary's.
func TestRunJSONEmbedsStableReport(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-json", "-topk", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Candidates []trigene.SearchCandidate `json:"candidates"`
		Report     *trigene.Report           `json:"report"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	rep := summary.Report
	if rep == nil {
		t.Fatal("no embedded report")
	}
	if rep.Backend != "cpu" || rep.Order != 3 || rep.Objective != "k2" || rep.Duration <= 0 {
		t.Errorf("embedded report metadata: %+v", rep)
	}
	if len(rep.TopK) != 3 || len(summary.Candidates) != 3 {
		t.Fatalf("candidate depth: report %d, summary %d", len(rep.TopK), len(summary.Candidates))
	}
	for i := range rep.TopK {
		if rep.TopK[i].Score != summary.Candidates[i].Score {
			t.Errorf("top-%d: report %.12f != summary %.12f", i+1, rep.TopK[i].Score, summary.Candidates[i].Score)
		}
	}
}

// TestRunRAWInput: the PLINK .raw loader is reachable explicitly and
// by auto-detection.
func TestRunRAWInput(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "tiny.raw")
	content := "FID IID PAT MAT SEX PHENOTYPE rs1_A rs2_C rs3_G\n" +
		"F S1 0 0 1 1 0 0 0\nF S2 0 0 1 2 1 1 2\nF S3 0 0 1 1 2 2 1\nF S4 0 0 1 2 0 1 0\n"
	if err := os.WriteFile(raw, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", raw, "-informat", "raw", "-topk", "1"},
		{"-in", raw, "-topk", "1"}, // auto-detected by the FID header
	} {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "dataset: 3 SNPs x 4 samples") {
			t.Errorf("%v wrong:\n%s", args, out.String())
		}
	}
	// Malformed .raw input fails loudly through the CLI.
	bad := filepath.Join(dir, "bad.raw")
	if err := os.WriteFile(bad, []byte("FID IID PAT MAT SEX PHENOTYPE rs1_A\nF S1 0 0 1 1 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "non-biallelic") {
		t.Errorf("bad .raw error = %v", err)
	}
}

func TestRunPermuteTextMode(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-permute", "30"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "permutation test (30 relabelings)") {
		t.Errorf("permutation line missing:\n%s", out.String())
	}
}

func TestRunPairsJSON(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-order", "2", "-json", "-permute", "20"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Mode       string `json:"mode"`
		Candidates []struct {
			SNPs []int `json:"snps"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Mode != "2-way" || len(summary.Candidates) == 0 || len(summary.Candidates[0].SNPs) != 2 {
		t.Errorf("pairs JSON wrong: %+v", summary)
	}
}

func TestRunOrderFour(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-order", "4", "-topk", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4-way:") {
		t.Errorf("4-way output wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-in", path, "-order", "4", "-json"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Mode       string `json:"mode"`
		Candidates []struct {
			SNPs []int `json:"snps"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Mode != "4-way" || len(summary.Candidates[0].SNPs) != 4 {
		t.Errorf("4-way JSON wrong: %+v", summary)
	}
	if err := run([]string{"-in", path, "-order", "99"}, &out, &errBuf); err == nil {
		t.Error("order 99 accepted")
	}
}

func TestRunPEDInput(t *testing.T) {
	dir := t.TempDir()
	ped := filepath.Join(dir, "tiny.ped")
	content := "F S1 0 0 1 1 A A C C G G\nF S2 0 0 1 2 A G C T G T\nF S3 0 0 1 1 G G T T T T\nF S4 0 0 1 2 A A C C G G\n"
	if err := os.WriteFile(ped, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", ped, "-informat", "ped", "-topk", "1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset: 3 SNPs x 4 samples") {
		t.Errorf("PED run wrong:\n%s", out.String())
	}
}

func TestRunVCFInput(t *testing.T) {
	dir := t.TempDir()
	vcf := filepath.Join(dir, "tiny.vcf")
	content := "##fileformat=VCFv4.2\n" +
		"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\tS4\n" +
		"1\t10\trs1\tA\tG\t.\tPASS\t.\tGT\t0/0\t0/1\t1/1\t0/0\n" +
		"1\t20\trs2\tC\tT\t.\tPASS\t.\tGT\t0/1\t1/1\t0/0\t0/1\n" +
		"1\t30\trs3\tG\tT\t.\tPASS\t.\tGT\t1/1\t0/0\t0/1\t1/1\n"
	if err := os.WriteFile(vcf, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	phen := filepath.Join(dir, "phen.txt")
	if err := os.WriteFile(phen, []byte("0 1 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	// Auto-detection path (leading ##).
	if err := run([]string{"-in", vcf, "-phen", phen}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset: 3 SNPs x 4 samples") {
		t.Errorf("VCF run wrong:\n%s", out.String())
	}
	// Missing -phen is an error.
	if err := run([]string{"-in", vcf, "-informat", "vcf"}, &out, &errBuf); err == nil {
		t.Error("VCF without -phen accepted")
	}
	// Bad phenotype file.
	badPhen := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badPhen, []byte("0 1 2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", vcf, "-phen", badPhen}, &out, &errBuf); err == nil {
		t.Error("bad phenotype file accepted")
	}
	// Unknown format name.
	if err := run([]string{"-in", vcf, "-informat", "bogus"}, &out, &errBuf); err == nil {
		t.Error("bogus informat accepted")
	}
}

// TestRunScreened drives the two-stage screen flags end to end: the
// screened run still surfaces the planted triple, prints the audit
// line, embeds ScreenInfo in -json output, and rejects bad budgets
// before searching.
func TestRunScreened(t *testing.T) {
	path := writeDataset(t, false)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-in", path, "-screen-survivors", "8", "-topk", "3"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "screen: ") || !strings.Contains(s, "survivors") {
		t.Errorf("missing screen audit line:\n%s", s)
	}
	if !strings.Contains(s, "(1,7,12)") {
		t.Errorf("planted triple pruned by screen:\n%s", s)
	}

	out.Reset()
	if err := run([]string{"-in", path, "-screen-survivors", "8", "-json"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Screen *trigene.ScreenInfo `json:"screen"`
		Report struct {
			Screen *trigene.ScreenInfo `json:"screen"`
		} `json:"report"`
	}
	if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	if summary.Screen == nil || summary.Report.Screen == nil {
		t.Fatalf("screen info missing from -json output:\n%s", out.String())
	}
	if summary.Screen.Survivors != 8 {
		t.Errorf("screen survivors %d, want 8", summary.Screen.Survivors)
	}

	for _, args := range [][]string{
		{"-in", path, "-screen-survivors", "-3"},
		{"-in", path, "-screen-survivors", "99"}, // > M=16
		{"-in", path, "-screen-budget", "-1"},
		{"-in", path, "-screen-seeds", "4"}, // seeds without a survivor budget
	} {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("args %v accepted", args[1:])
		}
	}
}

// TestRunJSONMatchesSpec: each flag set runs exactly the search its
// SearchSpec describes — the embedded -json Report equals
// Session.Search(spec.Options()...) (plus WithShard for -shard) on the
// same file, wall-clock fields aside.
func TestRunJSONMatchesSpec(t *testing.T) {
	path := writeDataset(t, false)
	sess, err := datafile.ReadSession(path, "auto", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	cases := []struct {
		args  []string
		spec  trigene.SearchSpec
		shard []int // index, count
	}{
		{nil, trigene.SearchSpec{TopK: 5}, nil},
		{[]string{"-backend", "gpusim:GN1", "-approach", "tiled"},
			trigene.SearchSpec{TopK: 5, Backend: "gpusim:GN1", Approach: "tiled"}, nil},
		{[]string{"-order", "2", "-objective", "mi", "-topk", "3"},
			trigene.SearchSpec{Order: 2, Objective: "mi", TopK: 3}, nil},
		{[]string{"-screen-survivors", "8", "-screen-seeds", "2"},
			trigene.SearchSpec{TopK: 5, Screen: &trigene.ScreenSpec{MaxSurvivors: 8, SeedPairs: 2}}, nil},
		{[]string{"-shard", "1/3", "-approach", "V3F"},
			trigene.SearchSpec{TopK: 5, Approach: "V3F"}, []int{1, 3}},
		{[]string{"-backend", "baseline", "-workers", "2"},
			trigene.SearchSpec{TopK: 5, Backend: "baseline", Workers: 2}, nil},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		if name == "" {
			name = "defaults"
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append([]string{"-in", path, "-json"}, tc.args...), &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			var summary struct {
				Report *trigene.Report `json:"report"`
			}
			if err := json.Unmarshal(out.Bytes(), &summary); err != nil || summary.Report == nil {
				t.Fatalf("no embedded report (%v):\n%s", err, out.String())
			}
			opts, err := tc.spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			if tc.shard != nil {
				opts = append(opts, trigene.WithShard(tc.shard[0], tc.shard[1]))
			}
			want, err := sess.Search(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, wantJSON := wireForm(t, summary.Report), wireForm(t, want)
			if got != wantJSON {
				t.Errorf("epistasis -json report\n%s\nwant\n%s", got, wantJSON)
			}
		})
	}
	if err := run([]string{"-in", path, "-json", "-backend", "gpusim:GX9"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "GX9") {
		t.Errorf("unknown device: err = %v", err)
	}
}

// wireForm is a Report's stable JSON with the fields that measure wall
// time (duration, measured rate, screen stage timings) zeroed.
func wireForm(t *testing.T, rep *trigene.Report) string {
	t.Helper()
	r := *rep
	r.Duration, r.ElementsPerSec = 0, 0
	if r.Screen != nil {
		sc := *r.Screen
		sc.Stage1Ns, sc.Stage2Ns = 0, 0
		r.Screen = &sc
	}
	raw, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRunScreenBudget: -screen-budget sizes the screen and
// -screen-survivors caps it, so a budget the exhaustive search fits
// declines the screen whatever the cap; and at -order 2 a budget screen
// declines, since its stage 1 already scores every pair: 40 SNPs score
// C(40,2) = 780 pairs, not 780 and a stage 2 on top.
func TestRunScreenBudget(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 40, Samples: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.tg")
	var text bytes.Buffer
	if err := trigene.WriteText(&text, mx); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args         []string
		combinations int64
	}{
		{[]string{"-screen-survivors", "8", "-screen-budget", "1e6"}, 9880},
		{[]string{"-order", "2", "-screen-budget", "0.0026"}, 780},
	} {
		var out, errBuf bytes.Buffer
		if err := run(append([]string{"-in", path, "-json"}, tc.args...), &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var summary struct {
			Report struct {
				Combinations int64               `json:"combinations"`
				Screen       *trigene.ScreenInfo `json:"screen"`
			} `json:"report"`
		}
		if err := json.Unmarshal(out.Bytes(), &summary); err != nil {
			t.Fatal(err)
		}
		rep := summary.Report
		if rep.Screen == nil || !rep.Screen.Declined || rep.Screen.PairsScanned != 0 || rep.Combinations != tc.combinations {
			t.Errorf("%v: %d combinations, screen %+v; want %d and a declined screen", tc.args, rep.Combinations, rep.Screen, tc.combinations)
		}
	}
}
