// epistasis runs an exhaustive epistasis search on a dataset file
// (trigene text or binary format, packed .tpack, PLINK .ped, PLINK
// binary .bed with its .bim/.fam sidecars, or VCF; magic bytes are
// auto-detected) through the unified Session/Backend API. Its search
// flags are `trigened submit`'s: both build a trigene.SearchSpec, and
// epistasis runs it here as a cluster worker runs a tile.
//
// Usage:
//
//	epistasis -in data.tg                        # defaults: CPU V4F, K2, all cores
//	epistasis -in data.tgb -approach V3F -topk 10 -objective mi
//	epistasis -in data.tg -backend gpusim:GN1    # run on a simulated GPU instead
//	epistasis -in data.tg -backend baseline      # MPI3SNP-style comparator (MI)
//	epistasis -in data.tg -backend hetero        # collaborative CPU+GPU split
//	epistasis -in data.tg -order 2               # pairs instead of triples
//	epistasis -in data.tg -shard 0/4             # evaluate one shard of the space
//	epistasis -in data.tg -screen-survivors 64   # two-stage: pair screen, then triples on survivors
//	epistasis -in data.tg -screen-budget 2.5     # screen only if the measured search overruns 2.5 s
//	epistasis -in data.tg -permute 10000         # permutation-test the best candidate (bit-plane kernel)
//	epistasis -in data.tg -permute 10000 -perm-cluster http://c:9321  # fan the test out over the cluster
//	epistasis -in data.tpack                     # search a packed dataset (starts in ms)
//
// `trigened pack` and `datagen -format pack` write .tpack files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"trigene"
	"trigene/internal/cluster"
	"trigene/internal/datafile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("epistasis: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the testable tool body.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("epistasis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := datafile.BindSearchFlags(fs)
	fs.Float64Var(&sf.ScreenBudget, "screen-budget", 0, "two-stage screening under a time budget in seconds: the exhaustive search runs if its measured rate projects it inside the budget, else the survivor set is sized at that rate (0 = off; cpu backend, unsharded; combinable with -screen-survivors as a cap; host-dependent: a bit-exact rerun passes the Report's survivor count to -screen-survivors)")
	shard := fs.String("shard", "", "evaluate shard \"i/n\" of the combination space (e.g. 0/4)")
	permute := fs.Int("permute", 0, "permutation count for a significance test of the best candidate (0 = off)")
	permCluster := fs.String("perm-cluster", "", "with -permute: fan the permutation test out over the cluster at this coordinator URL (the search itself stays local); merged p-values are bit-exact with the local run")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if sf.In == "" {
		fs.Usage()
		return fmt.Errorf("missing required -in")
	}
	sess, err := datafile.ReadSession(sf.In, sf.Format, sf.Phen)
	if err != nil {
		return err
	}
	defer sess.Close()
	spec, err := sf.Spec(sess.SNPs())
	if err != nil {
		return err
	}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	if *shard != "" {
		idx, cnt, err := parseShard(*shard)
		if err != nil {
			return err
		}
		opts = append(opts, trigene.WithShard(idx, cnt))
	}
	if !*jsonOut {
		controls, cases := sess.ClassCounts()
		fmt.Fprintf(stdout, "dataset: %d SNPs x %d samples (%d controls / %d cases)\n",
			sess.SNPs(), sess.Samples(), controls, cases)
	}

	ctx := context.Background()
	rep, err := sess.Search(ctx, opts...)
	if err != nil {
		return err
	}

	var pValue *float64
	if *permute > 0 {
		permOpts := []trigene.Option{
			trigene.WithPermutations(*permute),
			trigene.WithObjective(rep.Objective),
		}
		if sf.Workers > 0 {
			permOpts = append(permOpts, trigene.WithWorkers(sf.Workers))
		}
		if *permCluster != "" {
			permOpts = append(permOpts, trigene.WithCluster(cluster.NewClient(*permCluster)))
		}
		sig, err := sess.PermutationTest(ctx, rep.Best.SNPs, permOpts...)
		if err != nil {
			return err
		}
		pValue = &sig.PValue
	}

	if *jsonOut {
		return writeJSON(stdout, summarize(sess, rep, pValue))
	}
	printScreen(stdout, rep)
	printReport(stdout, rep)
	printPValue(stdout, pValue, *permute)
	return nil
}

// printScreen renders the two-stage screening audit trail.
func printScreen(w io.Writer, rep *trigene.Report) {
	s := rep.Screen
	if s == nil {
		return
	}
	if s.Declined {
		fmt.Fprintf(w, "screen: declined (%s)\n", s.Reason)
		return
	}
	fmt.Fprintf(w, "screen: %d pairs scanned -> %d survivors (threshold %.4f, %d seed pairs); stage 1 %v, stage 2 %v\n",
		s.PairsScanned, s.Survivors, s.Threshold, s.SeedPairs,
		time.Duration(s.Stage1Ns).Round(time.Millisecond),
		time.Duration(s.Stage2Ns).Round(time.Millisecond))
}

// printReport renders the unified Report in the tool's text format.
func printReport(w io.Writer, rep *trigene.Report) {
	switch {
	case rep.GPU != nil && rep.Hetero == nil:
		dev := strings.TrimPrefix(rep.Backend, "gpusim:")
		fmt.Fprintf(w, "simulated %s (kernel %s): modeled %.3f ms, %.2f G elements/s\n",
			dev, rep.Approach, rep.GPU.ModelSeconds*1e3, rep.ElementsPerSec/1e9)
	case rep.Hetero != nil:
		fmt.Fprintf(w, "heterogeneous (CPU fraction %.2f): %d combinations in %v (%.2f G elements/s)\n",
			rep.Hetero.CPUFraction, rep.Combinations,
			rep.Duration.Round(time.Millisecond), rep.ElementsPerSec/1e9)
	case rep.Order == 3:
		fmt.Fprintf(w, "approach %s: %d combinations in %v (%.2f G elements/s)\n",
			rep.Approach, rep.Combinations, rep.Duration.Round(time.Millisecond),
			rep.ElementsPerSec/1e9)
	default:
		fmt.Fprintf(w, "%d-way: %d combinations in %v (%.2f G elements/s)\n",
			rep.Order, rep.Combinations, rep.Duration.Round(time.Millisecond),
			rep.ElementsPerSec/1e9)
	}
	if rep.Shard != nil {
		fmt.Fprintf(w, "shard %d/%d: %s [%d,%d)\n",
			rep.Shard.Index, rep.Shard.Count, rep.Shard.Space, rep.Shard.Lo, rep.Shard.Hi)
	}
	for i, c := range rep.TopK {
		fmt.Fprintf(w, "%2d. %s  %s = %.4f\n", i+1, snpsString(c.SNPs), rep.Objective, c.Score)
	}
}

// snpsString renders a candidate as "(i,j,k)" for any order.
func snpsString(snps []int) string {
	parts := make([]string, len(snps))
	for i, s := range snps {
		parts[i] = strconv.Itoa(s)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// parseShard parses "i/n".
func parseShard(s string) (index, count int, err error) {
	lo, hi, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q: want \"index/count\", e.g. 0/4", s)
	}
	if index, err = strconv.Atoi(lo); err != nil {
		return 0, 0, fmt.Errorf("shard index %q: %v", lo, err)
	}
	if count, err = strconv.Atoi(hi); err != nil {
		return 0, 0, fmt.Errorf("shard count %q: %v", hi, err)
	}
	return index, count, nil
}

// jsonSummary is the machine-readable output of a search run. The
// candidate encoding and the embedded "report" use trigene's stable
// wire format, so this output and `trigened result` carry identical
// Report JSON.
type jsonSummary struct {
	Mode         string  `json:"mode"`
	Backend      string  `json:"backend"`
	SNPs         int     `json:"snps"`
	Samples      int     `json:"samples"`
	Controls     int     `json:"controls"`
	Cases        int     `json:"cases"`
	Objective    string  `json:"objective"`
	Combinations int64   `json:"combinations"`
	GElemPerSec  float64 `json:"gigaElementsPerSec"`
	// Kernel is the fused-kernel implementation this host selected
	// (what a CPU order-3 V4F run executed): "avx512-vpopcntdq" or
	// "portable".
	Kernel     string                    `json:"kernel"`
	Candidates []trigene.SearchCandidate `json:"candidates"`
	PValue     *float64                  `json:"pValue,omitempty"`
	// Screen surfaces the two-stage screening audit trail (also
	// embedded in Report) for -screen-* runs.
	Screen *trigene.ScreenInfo `json:"screen,omitempty"`
	Report *trigene.Report     `json:"report"`
}

func summarize(sess *trigene.Session, rep *trigene.Report, pValue *float64) jsonSummary {
	controls, cases := sess.ClassCounts()
	mode := fmt.Sprintf("%d-way", rep.Order)
	if rep.Order == 3 {
		mode += " " + rep.Approach
	}
	return jsonSummary{
		Mode:         mode,
		Backend:      rep.Backend,
		SNPs:         sess.SNPs(),
		Samples:      sess.Samples(),
		Controls:     controls,
		Cases:        cases,
		Objective:    rep.Objective,
		Combinations: rep.Combinations,
		GElemPerSec:  rep.ElementsPerSec / 1e9,
		Kernel:       trigene.Kernel(),
		Candidates:   rep.TopK,
		PValue:       pValue,
		Screen:       rep.Screen,
		Report:       rep,
	}
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printPValue(w io.Writer, p *float64, permutations int) {
	if p != nil {
		fmt.Fprintf(w, "permutation test (%d relabelings): p = %.4f\n", permutations, *p)
	}
}
