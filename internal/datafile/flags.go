package datafile

import (
	"flag"

	"trigene"
)

// SearchFlags are the flags cmd/epistasis and `trigened submit` share:
// the dataset to read and the search to run on it. Both bind them with
// BindSearchFlags and build a trigene.SearchSpec from them, so a flag
// cannot be spelled, defaulted or translated differently in the two.
type SearchFlags struct {
	In, Format, Phen             string
	Backend, Approach, Objective string
	Order, TopK, Workers         int
	ScreenSurvivors, ScreenSeeds int
	// ScreenBudget is ScreenSpec.BudgetSeconds, priced by the rate the
	// local search measures. BindSearchFlags leaves it unbound: a cluster
	// job sizes its screen by survivors only, so epistasis binds
	// -screen-budget itself.
	ScreenBudget float64
}

// BindSearchFlags defines the shared flags on fs.
func BindSearchFlags(fs *flag.FlagSet) *SearchFlags {
	f := &SearchFlags{}
	fs.StringVar(&f.In, "in", "", "input dataset path (required; '-' for stdin)")
	fs.StringVar(&f.Format, "informat", "auto", FormatsHelp)
	fs.StringVar(&f.Phen, "phen", "", "phenotype file for VCF input (one 0/1 per sample, whitespace separated)")
	fs.StringVar(&f.Backend, "backend", "", "execution backend: cpu, baseline, hetero or gpusim:<ID> (a simulated Table II GPU, e.g. gpusim:GN1); default cpu")
	fs.StringVar(&f.Approach, "approach", "", "pipeline: on cpu V3F or V4F (or fused-blocked/fused); on gpusim V1..V4 or V4F (or naive/split/transposed/tiled/fused); default: the backend's best (cpu V4F, gpusim V4)")
	fs.IntVar(&f.Order, "order", 0, "interaction order 2..7 (0 = 3)")
	fs.IntVar(&f.TopK, "topk", 5, "number of candidates to report")
	fs.StringVar(&f.Objective, "objective", "", "objective: k2, mi or gini (default: the backend's native objective)")
	fs.IntVar(&f.Workers, "workers", 0, "host parallelism of each node that runs the search (0 = all cores)")
	fs.IntVar(&f.ScreenSurvivors, "screen-survivors", 0, "two-stage screening: keep the S best SNPs from a pairwise pre-scan and search only among them (0 = no screen)")
	fs.IntVar(&f.ScreenSeeds, "screen-seeds", 0, "with a screen: also extend the top P screened pairs with every third SNP, guarding against survivors pruned by a marginal-free interaction (0 = none)")
	return f
}

// Spec is the search the flags describe, with its screen checked
// against a dataset of snps SNPs.
func (f *SearchFlags) Spec(snps int) (trigene.SearchSpec, error) {
	sp := trigene.SearchSpec{
		Order:     f.Order,
		TopK:      f.TopK,
		Objective: f.Objective,
		Backend:   f.Backend,
		Approach:  f.Approach,
		Workers:   f.Workers,
	}
	if f.ScreenSurvivors != 0 || f.ScreenSeeds != 0 || f.ScreenBudget != 0 {
		sc := trigene.ScreenSpec{
			MaxSurvivors:  f.ScreenSurvivors,
			SeedPairs:     f.ScreenSeeds,
			BudgetSeconds: f.ScreenBudget,
		}
		if err := sc.Validate(snps); err != nil {
			return trigene.SearchSpec{}, err
		}
		sp.Screen = &sc
	}
	return sp, nil
}
