package main

import (
	"bytes"
	"strings"
	"testing"
)

func runExp(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestFig2aOutput(t *testing.T) {
	s := runExp(t, "-exp", "fig2a")
	for _, want := range []string{
		"Figure 2a", "Int32 Vector ADD Peak", "L3->C", "V1", "V4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("fig2a output missing %q", want)
		}
	}
}

func TestFig2bOutput(t *testing.T) {
	s := runExp(t, "-exp", "fig2b")
	for _, want := range []string{"Figure 2b", "POPCNT Peak", "transactions"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig2b output missing %q", want)
		}
	}
}

func TestFig3Fig4Output(t *testing.T) {
	s3 := runExp(t, "-exp", "fig3")
	for _, want := range []string{"CI3 AVX512", "CA1 AVX", "(a)", "(b)", "(c)"} {
		if !strings.Contains(s3, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
	s4 := runExp(t, "-exp", "fig4")
	for _, want := range []string{"GN1 Pascal", "GA3 RDNA2", "stream core"} {
		if !strings.Contains(s4, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestTable3Output(t *testing.T) {
	s := runExp(t, "-exp", "table3", "-host-snps", "32", "-host-samples", "512")
	for _, want := range []string{
		"Table III", "MPI3SNP", "Nobre et al. [29]", "Campos et al. [30]",
		"host-measured cross-check", "this work V4F",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestOverallOutput(t *testing.T) {
	s := runExp(t, "-exp", "overall")
	for _, want := range []string{"Section V-D", "heterogeneous CI3+GN1", "G elem/J"} {
		if !strings.Contains(s, want) {
			t.Errorf("overall output missing %q", want)
		}
	}
}

func TestHostOutput(t *testing.T) {
	s := runExp(t, "-exp", "host", "-host-snps", "24", "-host-samples", "256")
	for _, want := range []string{"Host-measured", "MPI3SNP-style baseline", "V3F", "V4F", "speedup vs baseline"} {
		if !strings.Contains(s, want) {
			t.Errorf("host output missing %q", want)
		}
	}
}

// TestUnknownExperiment: only the paper experiments exist. The per-PR
// audits retired in PR 18 (their gates are tests and bench/ metrics
// now), the DVFS energy study, which reproduced no paper artifact, and
// the audits' -out flag are refused like any other unknown name.
func TestUnknownExperiment(t *testing.T) {
	retired := []string{"snapshot", "sched", "cluster", "plan", "store", "durable", "kernels", "obs", "screen", "perm", "energy"}
	for _, name := range append([]string{"fig9"}, retired...) {
		var out, errBuf bytes.Buffer
		err := run([]string{"-exp", name}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: err = %v, want unknown experiment", name, err)
		}
	}
	for _, args := range [][]string{{"-badflag"}, {"-exp", "host", "-out", "x.json"}} {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v): err = %v, want undefined-flag error", args, err)
		}
	}
}

// TestAllOutput: -exp all renders the seven paper experiments, in
// order, and nothing else.
func TestAllOutput(t *testing.T) {
	s := runExp(t, "-exp", "all", "-host-snps", "24", "-host-samples", "256")
	headers := []string{
		"== Figure 2a", "== Figure 2b", "== Figure 3", "== Figure 4", "== Table III",
		"== Section V-D", "== Host-measured approach study (24 SNPs x 256 samples)",
	}
	at := 0
	for _, h := range headers {
		i := strings.Index(s[at:], h)
		if i < 0 {
			t.Fatalf("-exp all: %q missing or out of order", h)
		}
		at += i + len(h)
	}
	if n := strings.Count("\n"+s, "\n== "); n != len(headers) {
		t.Errorf("-exp all printed %d experiment headers, want %d", n, len(headers))
	}
}
