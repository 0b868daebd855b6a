// Quickstart: generate a small synthetic case-control dataset with a
// planted three-way interaction and recover it through the unified
// Session API with the default search (CPU backend, approach V4F, all
// cores, Bayesian K2 score).
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"trigene"
)

func main() {
	// Plant a third-order signal at SNPs (7, 19, 31): genotype triples
	// carrying at least three minor alleles are cases with probability
	// 0.9, everything else with probability 0.1.
	interaction := &trigene.Interaction{
		SNPs:       [3]int{7, 19, 31},
		Penetrance: trigene.ThresholdPenetrance(3, 0.1, 0.9),
	}
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs:        64,
		Samples:     2000,
		Seed:        42,
		MAFMin:      0.25,
		MAFMax:      0.5,
		Interaction: interaction,
	})
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	controls, cases := mx.ClassCounts()
	fmt.Printf("dataset: %d SNPs x %d samples (%d controls / %d cases)\n",
		mx.SNPs(), mx.Samples(), controls, cases)

	// A Session validates the dataset once and serves any number of
	// concurrent searches; it is the object a server holds per loaded
	// dataset.
	sess, err := trigene.NewSession(mx)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	rep, err := sess.Search(context.Background(), trigene.WithTopK(3))
	if err != nil {
		log.Fatalf("search: %v", err)
	}

	fmt.Printf("evaluated %d combinations in %v (%.2f G elements/s)\n",
		rep.Combinations, rep.Duration.Round(1000000), rep.ElementsPerSec/1e9)
	fmt.Printf("best triple: %v  K2 = %.3f\n", rep.Best.SNPs, rep.Best.Score)
	for i, c := range rep.TopK {
		fmt.Printf("  top-%d: %v  K2 = %.3f\n", i+1, c.SNPs, c.Score)
	}
	if slices.Equal(rep.Best.SNPs, []int{7, 19, 31}) {
		fmt.Println("planted interaction recovered")
	} else {
		fmt.Println("planted interaction NOT recovered (unexpected for this seed)")
	}
}
