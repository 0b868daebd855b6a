// gwas_scan: a realistic exploratory scan. Generates a GWAS-scale
// synthetic dataset with a parity interaction drawn at the one minor
// allele frequency where parity has no marginal effect (MAF = 1 − 1/√2,
// so P(genotype ≠ 0) = ½ at every SNP: no single SNP shows a signal —
// the workload that motivates exhaustive search), scans it with both CPU
// approaches through one Session, and reports their throughput alongside
// the recovered interaction.
//
// Flags allow scaling the workload up or down:
//
//	go run ./examples/gwas_scan -snps 256 -samples 4096
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"slices"

	"trigene"
)

// xorFreeMAF is the minor allele frequency at which a Hardy-Weinberg SNP
// has P(genotype ≠ 0) = ½, where trigene.XorPenetrance leaves no
// single-SNP marginal.
const xorFreeMAF = 0.2929

func main() {
	snps := flag.Int("snps", 192, "number of SNPs")
	samples := flag.Int("samples", 4096, "number of samples")
	seed := flag.Int64("seed", 7, "generator seed")
	topK := flag.Int("topk", 5, "candidates to report")
	flag.Parse()

	target := []int{*snps / 5, *snps / 2, *snps - 3}
	interaction := &trigene.Interaction{
		SNPs:       [3]int{target[0], target[1], target[2]},
		Penetrance: trigene.XorPenetrance(0.15, 0.85),
	}
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: *snps, Samples: *samples, Seed: *seed,
		MAFMin: xorFreeMAF, MAFMax: xorFreeMAF, Interaction: interaction,
	})
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	controls, cases := mx.ClassCounts()
	fmt.Printf("scan: %d SNPs x %d samples (%d/%d), %d workers, MAF %.4f\n",
		*snps, *samples, controls, cases, runtime.GOMAXPROCS(0), xorFreeMAF)
	fmt.Printf("planted parity interaction at (%d,%d,%d) - no marginal effects at this MAF\n\n",
		target[0], target[1], target[2])

	// One Session serves both runs: the dataset is validated and
	// encoded exactly once.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	ctx := context.Background()

	var portable float64
	for _, a := range []trigene.Approach{trigene.V3Fused, trigene.V4Fused} {
		rep, err := sess.Search(ctx, trigene.WithApproach(a), trigene.WithTopK(*topK))
		if err != nil {
			log.Fatalf("%v: %v", a, err)
		}
		speedup := 1.0
		if portable == 0 {
			portable = rep.Duration.Seconds()
		} else {
			speedup = portable / rep.Duration.Seconds()
		}
		fmt.Printf("%s: %8v  %6.2f G elements/s  (%.2fx vs V3F)  best %v K2=%.2f\n",
			rep.Approach, rep.Duration.Round(1000000), rep.ElementsPerSec/1e9,
			speedup, rep.Best.SNPs, rep.Best.Score)
		if a == trigene.V4Fused {
			fmt.Printf("\ntop candidates (V4F, %s kernel):\n", trigene.Kernel())
			for i, c := range rep.TopK {
				marker := ""
				if slices.Equal(c.SNPs, target) {
					marker = "  <- planted"
				}
				fmt.Printf("  %d. %v  K2 = %.3f%s\n", i+1, c.SNPs, c.Score, marker)
			}
			if slices.Equal(rep.Best.SNPs, target) {
				fmt.Println("\nplanted interaction recovered by exhaustive search")
			}
		}
	}
}
