package trigene_test

import (
	"context"
	"strings"
	"testing"

	"trigene"
)

// Facade coverage for the extension APIs: 2-way search, permutation
// testing, heterogeneous execution, and the PLINK/VCF importers.

func TestPublicAPIPairWorkflow(t *testing.T) {
	var pen [9]float64
	for c := range pen {
		if c/3+c%3 >= 2 {
			pen[c] = 0.9
		} else {
			pen[c] = 0.1
		}
	}
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 30, Samples: 1000, Seed: 70, MAFMin: 0.3, MAFMax: 0.5,
		PairInteraction: &trigene.PairInteraction{SNPs: [2]int{4, 19}, Penetrance: pen},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := sess.Search(ctx, trigene.WithOrder(2), trigene.WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, rep.Best.SNPs, 4, 19)
	sig, err := sess.PermutationTest(ctx, rep.Best.SNPs,
		trigene.WithPermutations(100), trigene.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if sig.PValue > 0.02 {
		t.Errorf("planted pair p = %.4f, want tiny", sig.PValue)
	}
	if sig.Observed != rep.Best.Score {
		t.Errorf("observed %.6f != scan score %.6f", sig.Observed, rep.Best.Score)
	}
}

func TestPublicAPIHeterogeneous(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 20, Samples: 300, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := sess.Search(ctx)
	if err != nil {
		t.Fatal(err)
	}
	het, err := sess.Search(ctx, trigene.WithBackend(trigene.Hetero()))
	if err != nil {
		t.Fatal(err)
	}
	wantSNPs(t, het.Best.SNPs, want.Best.SNPs...)
	if het.Best.Score != want.Best.Score {
		t.Errorf("heterogeneous best %.9f != %.9f", het.Best.Score, want.Best.Score)
	}
	if het.Hetero == nil || het.Hetero.CPUFraction < 0 || het.Hetero.CPUFraction > 1 {
		t.Errorf("hetero split info: %+v", het.Hetero)
	}
}

func TestPublicAPIPermutationTest(t *testing.T) {
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 15, Samples: 600, Seed: 72, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{2, 7, 11},
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
	res, err := sess.PermutationTest(context.Background(), []int{2, 7, 11},
		trigene.WithPermutations(100), trigene.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.02 {
		t.Errorf("planted triple p = %.4f", res.PValue)
	}
}

func TestPublicAPIImporters(t *testing.T) {
	ped := "F S1 0 0 1 1 A A C C\nF S2 0 0 1 2 A G C T\nF S3 0 0 1 1 G G T T\n"
	mx, err := trigene.ReadPED(strings.NewReader(ped))
	if err != nil {
		t.Fatal(err)
	}
	if mx.SNPs() != 2 || mx.Samples() != 3 {
		t.Errorf("PED dims %dx%d", mx.SNPs(), mx.Samples())
	}

	vcf := "##fileformat=VCFv4.2\n" +
		"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\n" +
		"1\t10\trs1\tA\tG\t.\tPASS\t.\tGT\t0/1\t1/1\n"
	vmx, err := trigene.ReadVCF(strings.NewReader(vcf), []uint8{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vmx.SNPs() != 1 || vmx.Samples() != 2 || vmx.Geno(0, 1) != 2 {
		t.Error("VCF parse wrong")
	}
}
