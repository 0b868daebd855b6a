// significance: the full analysis workflow a study would run — a 2-way
// scan, a 3-way scan on the heterogeneous CPU+GPU backend, and
// phenotype-permutation significance testing of all the winners in one
// batched bit-plane pass — all through one Session and its unified
// Search/PermutationTestAll surface.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"trigene"
)

func main() {
	// Plant a 3-way parity interaction. Its pairwise shadows are weak
	// (subsets of the triple), so only the exhaustive triple scan
	// pinpoints the full interaction.
	target := []int{11, 29, 47}
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs: 56, Samples: 1600, Seed: 77, MAFMin: 0.3, MAFMax: 0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{target[0], target[1], target[2]},
			Penetrance: trigene.XorPenetrance(0.2, 0.8),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	controls, cases := mx.ClassCounts()
	fmt.Printf("dataset: %d SNPs x %d samples (%d/%d)\n\n", mx.SNPs(), mx.Samples(), controls, cases)

	sess, err := trigene.NewSession(mx)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Stage 1: pairwise scan. At best it finds a two-SNP shadow of the
	// planted triple, never the full interaction.
	pairs, err := sess.Search(ctx, trigene.WithOrder(2), trigene.WithTopK(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-way scan: best pair %v  K2 = %.2f\n\n", pairs.Best.SNPs, pairs.Best.Score)

	// Stage 2: exhaustive 3-way scan, split between the CPU engine and
	// a simulated GPU as in the paper's Section V-D — just a backend
	// swap on the same Session.
	het, err := sess.Search(ctx, trigene.WithBackend(trigene.Hetero()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-way heterogeneous scan (CPU fraction %.2f): best %v  K2 = %.2f\n",
		het.Hetero.CPUFraction, het.Best.SNPs, het.Best.Score)
	fmt.Printf("  %d combinations; GPU half modeled stats available; modeled pair throughput %.0f G elem/s\n",
		het.Combinations, het.Hetero.ModeledCombinedGElems)

	// Stage 3: significance of every winner at once. The pairwise top-3
	// and the 3-way winner go through one PermutationTestAll call, so
	// each relabeled phenotype is drawn once and shared across all four
	// candidates.
	candidates := make([][]int, 0, len(pairs.TopK)+1)
	for _, c := range pairs.TopK {
		candidates = append(candidates, c.SNPs)
	}
	candidates = append(candidates, het.Best.SNPs)
	sig, err := sess.PermutationTestAll(ctx, candidates,
		trigene.WithPermutations(500), trigene.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("batched permutation test (500 relabelings shared across all candidates):")
	for i, r := range sig {
		fmt.Printf("  %v: p = %.4f (%d/%d permutations as good)\n",
			candidates[i], r.PValue, r.AsGoodOrBetter, r.Permutations)
	}
	fmt.Println()
	pt := sig[len(sig)-1]

	recovered := slices.Equal(het.Best.SNPs, target)
	switch {
	case recovered && pt.PValue <= 0.01:
		fmt.Println("verdict: planted 3-way interaction recovered and significant")
	case recovered:
		fmt.Println("verdict: planted triple recovered but not significant at 0.01")
	default:
		fmt.Printf("verdict: best triple %v differs from planted %v\n", het.Best.SNPs, target)
	}
}
