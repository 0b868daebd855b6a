// Command bench is trigene's one end-to-end benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and per-layer metrics
// measured from outside the program. See README.md and ../BENCHMARK.json.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run, one JSON line
//	bench -seed <n> [-traced] [-out results.json]                every workload, one child each
//	bench -compare a.json b.json                                 regression / gain verdicts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
		traced   = flag.Bool("traced", false, "without -workload: also make the traced run of every workload")
		out      = flag.String("out", "", "without -workload: append this invocation's runs to a results file, for -compare")
		detail   = flag.String("detail", "", "with -workload: also write the run's full result (distributions, failures) here")
		spans    = flag.String("spans", "", "with -workload -trace 1: write the recorded spans here")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs and coordinator state")
		compare  = flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
		gain     = flag.Bool("gain", false, "with -compare: also judge b against a by the gain rule")
		gen      = flag.Bool("gen", false, "internal: write the workload's input into -workdir and exit")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *gain)
	case *workload == "":
		err = runSuite(ctx, *seed, *seconds, *traced, *out, *workdir)
	default:
		w, ok := workloadByName(*workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		if *gen {
			err = generateInputs(w, *seed, *workdir)
			break
		}
		err = runOne(ctx, runConfig{
			w: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
			workdir: *workdir, genInChild: true, spansPath: *spans, memSet: memSetBytes,
		}, *detail)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = fmt.Errorf("outputs failed the correctness checks")

// runOne is the driver's contract: one run of one workload, whose last
// line of standard output is the result object. An oracle mismatch still
// prints the line (correct false, failed > 0) and then fails the command.
func runOne(ctx context.Context, cfg runConfig, detailPath string) error {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	if detailPath != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(detailPath, raw, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// resultsFile is what -out accumulates and -compare reads: every run of
// every workload made on one host with one seed and one run length.
type resultsFile struct {
	Host      hostInfo                `json:"host"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads []workloadDef           `json:"workloads"`
	Runs      map[string][]*runResult `json:"runs"` // by workload, in the order made
}

// runSuite runs every workload in a child process of its own, strictly one
// at a time, so that peak memory and garbage-collector state do not leak
// between workloads; prints every metric by name with its unit; and fails
// if any output failed a correctness check.
func runSuite(ctx context.Context, seed int64, seconds float64, traced bool, outPath, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	file := &resultsFile{Host: probeHost(), Seed: seed, Seconds: seconds, Workloads: workloads, Runs: map[string][]*runResult{}}
	if outPath != "" {
		if err := file.mergeExisting(outPath); err != nil {
			return err
		}
	}
	h := file.Host
	fmt.Printf("host: P=%d of %d CPUs, %s, %s; L1d %d KiB, L2 %d KiB, LLC %d MiB; seed %d, %g s per run\n",
		h.P, h.NumCPU, h.GoVersion, h.CPUModel, h.L1dBytes>>10, h.L2Bytes>>10, h.LLCBytes>>20, seed, seconds)
	if memSetBytes < 4*h.LLCBytes {
		fmt.Printf("note: bitvec.and3_gwords_per_s_mem streams %d MiB, less than 4 x LLC: cache-assisted\n", memSetBytes>>20)
	}
	incorrect := false
	for _, w := range workloads {
		for _, tr := range []bool{false, true}[:1+btoi(traced)] {
			detail := filepath.Join(workdir, fmt.Sprintf("detail-%s-%d.json", w.Name, btoi(tr)))
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(tr)),
				"-workdir", workdir, "-detail", detail}
			if tr {
				args = append(args, "-spans", filepath.Join(workdir, "spans-"+w.Name+".json"))
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run() // the child's JSON line is for the driver; the detail file says more
			raw, err := os.ReadFile(detail)
			if err != nil {
				return fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
			}
			os.Remove(detail)
			res := new(runResult)
			if err := json.Unmarshal(raw, res); err != nil {
				return fmt.Errorf("%s: %w", detail, err)
			}
			incorrect = incorrect || !res.Correct
			file.Runs[w.Name] = append(file.Runs[w.Name], res)
			printRun(w, res)
		}
	}
	if traced {
		fmt.Printf("spans: %s\n", filepath.Join(workdir, "spans-<workload>.json"))
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, raw, 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mergeExisting loads earlier runs from path, if it exists, after checking
// they were made under the same conditions.
func (f *resultsFile) mergeExisting(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	old := new(resultsFile)
	if err := json.Unmarshal(raw, old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := comparable(old, f); err != nil {
		return fmt.Errorf("%s holds runs made under other conditions: %w", path, err)
	}
	f.Runs = old.Runs
	return nil
}

func printRun(w workloadDef, res *runResult) {
	mode := "end-to-end (untraced)"
	if res.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("\n== %s: %d SNPs x %d samples — %s; %d operations, %d failed ==\n",
		w.Name, w.SNPs, w.Samples, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("  %-38s %14.6g %-8s", name, v.Value, v.Unit)
		if d, ok := res.Dist[name]; ok && d.N > 1 {
			fmt.Printf(" n=%d min %.6g q1 %.6g q3 %.6g max %.6g", d.N, d.Min, d.Q1, d.Q3, d.Max)
		}
		fmt.Println()
	}
	// What lies behind the metrics that are not medians: per call, the wall
	// time, the wall time x the host's speed around it, and the readings.
	var behind []string
	for name := range res.Dist {
		if _, ok := res.Metrics[name]; !ok && name != "cluster.tile_turnaround_ms" {
			behind = append(behind, name)
		}
	}
	sort.Strings(behind)
	for _, name := range behind {
		d := res.Dist[name]
		fmt.Printf("  . %-36s %14.6g          n=%d min %.6g q1 %.6g q3 %.6g max %.6g\n", name, d.Median, d.N, d.Min, d.Q1, d.Q3, d.Max)
	}
	if d, ok := res.Dist["cluster.tile_turnaround_ms"]; ok {
		fmt.Printf("  (tile turnaround: %d samples; p99 printed with at least ten beyond it: %v)\n", d.N, d.N >= 1000)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}
