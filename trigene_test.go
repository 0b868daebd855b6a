package trigene_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"trigene"
)

// The facade tests exercise the public API end to end, the way a
// downstream user would.

func TestPublicAPIEndToEnd(t *testing.T) {
	it := &trigene.Interaction{
		SNPs:       [3]int{3, 9, 15},
		Penetrance: trigene.ThresholdPenetrance(3, 0.05, 0.95),
	}
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 24, Samples: 900, Seed: 11, MAFMin: 0.3, MAFMax: 0.5, Interaction: it,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// CPU search with defaults.
	res, err := sess.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, res.Best.SNPs, 3, 9, 15)

	// GPU simulation on a Table II device agrees bit-exactly.
	gn1, err := trigene.GPUByID("GN1")
	if err != nil {
		t.Fatal(err)
	}
	gres, err := sess.Search(ctx, trigene.WithBackend(trigene.GPUSim(gn1)))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, gres.Best.SNPs, 3, 9, 15)
	if gres.Best.Score != res.Best.Score {
		t.Errorf("GPU score %.9f != CPU %.9f", gres.Best.Score, res.Best.Score)
	}

	// Baseline finds the same planted triple under MI.
	bres, err := sess.Search(ctx, trigene.WithBackend(trigene.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, bres.Best.SNPs, 3, 9, 15)
}

func TestPublicAPICodecsRoundTrip(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 10, Samples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tb, bb bytes.Buffer
	if err := trigene.WriteText(&tb, mx); err != nil {
		t.Fatal(err)
	}
	if err := trigene.WriteBinary(&bb, mx); err != nil {
		t.Fatal(err)
	}
	fromText, err := trigene.ReadText(&tb)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := trigene.ReadBinary(&bb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mx.SNPs(); i++ {
		for j := 0; j < mx.Samples(); j++ {
			if fromText.Geno(i, j) != mx.Geno(i, j) || fromBin.Geno(i, j) != mx.Geno(i, j) {
				t.Fatal("codec round trip mismatch")
			}
		}
	}
}

func TestPublicAPIApproachesAndObjectives(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 15, Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := trigene.ParseApproach("V3F")
	if err != nil || a != trigene.V3Fused {
		t.Fatalf("ParseApproach: %v %v", a, err)
	}
	var first *trigene.Report
	for _, ap := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
		rep, err := sess.Search(ctx, trigene.WithApproach(ap))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
		} else {
			wantSNPs(t, rep.Best.SNPs, first.Best.SNPs...)
			if rep.Best.Score != first.Best.Score {
				t.Errorf("approach %v disagrees", ap)
			}
		}
	}
	if _, err := sess.Search(ctx, trigene.WithObjective("mi")); err != nil {
		t.Fatal(err)
	}
	if _, err := trigene.NewObjective("bogus", 10); err == nil {
		t.Error("bogus objective accepted")
	}
}

// TestNewObjectiveRefusesSampleCountsOutOfRange: a negative sample count,
// or one past the readers' 2^24, is an error for every objective, not a
// panic in the ln(n!) table or a table that outgrows memory.
func TestNewObjectiveRefusesSampleCountsOutOfRange(t *testing.T) {
	for _, name := range []string{"k2", "mi", "gini"} {
		for _, n := range []int{-1, -5, math.MinInt, 1<<24 + 1, 1 << 40, math.MaxInt} {
			if obj, err := trigene.NewObjective(name, n); err == nil {
				t.Errorf("NewObjective(%q, %d) = %v, want an error", name, n, obj)
			}
		}
		if _, err := trigene.NewObjective(name, 0); err != nil {
			t.Errorf("NewObjective(%q, 0): %v", name, err)
		}
	}
}

func TestPublicAPICatalogs(t *testing.T) {
	if len(trigene.CPUs()) != 5 || len(trigene.GPUs()) != 9 {
		t.Errorf("catalog sizes: %d CPUs, %d GPUs", len(trigene.CPUs()), len(trigene.GPUs()))
	}
	if _, err := trigene.CPUByID("CI3"); err != nil {
		t.Error(err)
	}
	if _, err := trigene.GPUByID("nope"); err == nil {
		t.Error("unknown GPU accepted")
	}
}
