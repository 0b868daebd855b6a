// Autotune: the same search run twice over one dataset — once with a
// hand-picked backend, once under WithAutoTune, where the paper's
// analytical models (CARM roofline, per-approach throughput) price the
// kernel that runs and leave that price on the Report. Both runs use
// the same kernel and the same tiles, and their candidate lists are
// bit-exact: a plan prices a run, it never changes what runs, how the
// space is cut or what it finds. The program exits non-zero if the
// approaches differ or the candidate lists do.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"trigene"
)

func main() {
	mx, err := trigene.Generate(trigene.GenConfig{
		SNPs:    64,
		Samples: 2000,
		Seed:    42,
		MAFMin:  0.25,
		MAFMax:  0.5,
		Interaction: &trigene.Interaction{
			SNPs:       [3]int{7, 19, 31},
			Penetrance: trigene.ThresholdPenetrance(3, 0.1, 0.9),
		},
	})
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	sess, err := trigene.NewSession(mx)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	ctx := context.Background()

	// Hand-picked: the CPU backend with its static defaults.
	manual, err := sess.Search(ctx, trigene.WithBackend(trigene.CPU()), trigene.WithTopK(3))
	if err != nil {
		log.Fatalf("manual search: %v", err)
	}
	fmt.Printf("hand-picked : %s/%s  %d combos in %v  best %v (K2 %.3f)\n",
		manual.Backend, manual.Approach, manual.Combinations,
		manual.Duration.Round(1000000), manual.Best.SNPs, manual.Best.Score)

	// Autotuned: the planner prices the default kernel on the host's
	// model and leaves the price on the Report.
	tuned, err := sess.Search(ctx, trigene.WithTopK(3), trigene.WithAutoTune())
	if err != nil {
		log.Fatalf("autotuned search: %v", err)
	}
	p := tuned.Plan
	fmt.Printf("autotuned   : %s/%s  %d combos in %v  best %v (K2 %.3f)\n",
		tuned.Backend, tuned.Approach, tuned.Combinations,
		tuned.Duration.Round(1000000), tuned.Best.SNPs, tuned.Best.Score)
	fmt.Printf("plan        : backend=%s approach=%s workers=%d\n",
		p.Backend, p.Approach, p.Workers)
	fmt.Printf("plan        : predicted %.0f combos/s on %s — %s\n",
		p.PredictedCombosPerSec, p.CPUDevice, p.Reason)

	// Tuning never changes the kernel, and never the results.
	if tuned.Approach != manual.Approach {
		log.Fatalf("approaches diverged: hand-picked %s, autotuned %s", manual.Approach, tuned.Approach)
	}
	if len(manual.TopK) != len(tuned.TopK) {
		log.Fatalf("candidate lists diverged: %d hand-picked, %d autotuned", len(manual.TopK), len(tuned.TopK))
	}
	for i, c := range manual.TopK {
		if t := tuned.TopK[i]; !slices.Equal(t.SNPs, c.SNPs) || t.Score != c.Score {
			log.Fatalf("candidate lists diverged at %d: hand-picked %v (%v), autotuned %v (%v)",
				i+1, c.SNPs, c.Score, t.SNPs, t.Score)
		}
	}
	fmt.Println("hand-picked and autotuned runs share the kernel and bit-exact candidate lists")
}
