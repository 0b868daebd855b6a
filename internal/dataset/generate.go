package dataset

import (
	"fmt"
	"math/rand"
)

// Interaction describes a planted third-order epistatic interaction:
// the phenotype of a sample is drawn with probability Penetrance[combo]
// where combo indexes the genotype combination at the interacting SNPs
// (base-3, first SNP most significant).
type Interaction struct {
	SNPs       [3]int
	Penetrance [27]float64
}

// PairInteraction describes a planted second-order interaction, for
// the 2-way search mode. Penetrance is indexed by gx*3 + gy.
type PairInteraction struct {
	SNPs       [2]int
	Penetrance [9]float64
}

// GenConfig parameterizes the synthetic dataset generator. The paper's
// evaluation uses synthetic datasets "equivalent to real case
// scenarios" with 2048-40000 SNPs and 1600-16384 samples.
type GenConfig struct {
	SNPs    int
	Samples int
	Seed    int64

	// MAFMin and MAFMax bound the per-SNP minor allele frequency,
	// sampled uniformly. Genotypes follow Hardy-Weinberg proportions.
	// Zero values default to [0.05, 0.5].
	MAFMin, MAFMax float64

	// Prevalence is the baseline case probability for samples when no
	// interaction is planted (or away from the penetrance signal).
	// Zero defaults to 0.5, giving balanced classes.
	Prevalence float64

	// Interaction optionally plants a third-order signal.
	Interaction *Interaction

	// PairInteraction optionally plants a second-order signal instead
	// (mutually exclusive with Interaction).
	PairInteraction *PairInteraction
}

func (c *GenConfig) withDefaults() (GenConfig, error) {
	cfg := *c
	if cfg.SNPs < 3 || cfg.Samples < 2 {
		return cfg, fmt.Errorf("dataset: generator needs >=3 SNPs and >=2 samples, got %dx%d", cfg.SNPs, cfg.Samples)
	}
	if cfg.MAFMin == 0 && cfg.MAFMax == 0 {
		cfg.MAFMin, cfg.MAFMax = 0.05, 0.5
	}
	if cfg.MAFMin < 0 || cfg.MAFMax > 0.5 || cfg.MAFMin > cfg.MAFMax {
		return cfg, fmt.Errorf("dataset: invalid MAF range [%g,%g]", cfg.MAFMin, cfg.MAFMax)
	}
	if cfg.Prevalence == 0 {
		cfg.Prevalence = 0.5
	}
	if cfg.Prevalence < 0 || cfg.Prevalence > 1 {
		return cfg, fmt.Errorf("dataset: invalid prevalence %g", cfg.Prevalence)
	}
	if cfg.Interaction != nil && cfg.PairInteraction != nil {
		return cfg, fmt.Errorf("dataset: Interaction and PairInteraction are mutually exclusive")
	}
	if it := cfg.Interaction; it != nil {
		if err := checkInteraction(it.SNPs[:], it.Penetrance[:], cfg.SNPs); err != nil {
			return cfg, err
		}
	}
	if it := cfg.PairInteraction; it != nil {
		if err := checkInteraction(it.SNPs[:], it.Penetrance[:], cfg.SNPs); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func checkInteraction(snps []int, penetrance []float64, m int) error {
	seen := map[int]bool{}
	for _, s := range snps {
		if s < 0 || s >= m || seen[s] {
			return fmt.Errorf("dataset: invalid interaction SNPs %v", snps)
		}
		seen[s] = true
	}
	for _, p := range penetrance {
		if p < 0 || p > 1 {
			return fmt.Errorf("dataset: penetrance out of [0,1]: %g", p)
		}
	}
	return nil
}

// Generate builds a synthetic case-control dataset. Genotypes are drawn
// per SNP from Hardy-Weinberg proportions at a uniformly sampled MAF;
// phenotypes are drawn from the baseline prevalence, or from the planted
// penetrance table for the interacting SNPs if one is configured.
// The generator retries degenerate drawings (single-class datasets) a
// few times before giving up, since downstream scoring needs both
// classes present.
func Generate(cfg GenConfig) (*Matrix, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for attempt := 0; attempt < 8; attempt++ {
		mx := generateOnce(c, rng)
		if controls, cases := mx.ClassCounts(); controls > 0 && cases > 0 {
			return mx, nil
		}
	}
	return nil, fmt.Errorf("dataset: could not draw a two-class dataset (prevalence %g too extreme for %d samples)", c.Prevalence, c.Samples)
}

func generateOnce(c GenConfig, rng *rand.Rand) *Matrix {
	mx := NewMatrix(c.SNPs, c.Samples)
	for i := 0; i < c.SNPs; i++ {
		maf := c.MAFMin + rng.Float64()*(c.MAFMax-c.MAFMin)
		p0 := (1 - maf) * (1 - maf)
		p1 := 2 * maf * (1 - maf)
		row := mx.Row(i)
		for j := range row {
			u := rng.Float64()
			switch {
			case u < p0:
				row[j] = 0
			case u < p0+p1:
				row[j] = 1
			default:
				row[j] = 2
			}
		}
	}
	for j := 0; j < c.Samples; j++ {
		p := c.Prevalence
		if it := c.Interaction; it != nil {
			combo := 0
			for _, s := range it.SNPs {
				combo = combo*3 + int(mx.Geno(s, j))
			}
			p = it.Penetrance[combo]
		}
		if it := c.PairInteraction; it != nil {
			combo := int(mx.Geno(it.SNPs[0], j))*3 + int(mx.Geno(it.SNPs[1], j))
			p = it.Penetrance[combo]
		}
		if rng.Float64() < p {
			mx.SetPhen(j, Case)
		}
	}
	return mx
}

// ThresholdPenetrance returns a penetrance table for a third-order
// threshold model: combinations carrying at least minMinor minor
// alleles in total (genotype value sum >= minMinor) have high case
// probability, the rest low. This is a strong, easily recovered signal
// used by tests and examples.
func ThresholdPenetrance(minMinor int, low, high float64) [27]float64 {
	var t [27]float64
	for combo := 0; combo < 27; combo++ {
		sum := combo/9 + combo/3%3 + combo%3
		if sum >= minMinor {
			t[combo] = high
		} else {
			t[combo] = low
		}
	}
	return t
}

// XorPenetrance returns a penetrance table for a third-order parity
// model: case probability is high when the number of SNPs with a
// nonzero genotype is odd. The model has no single-SNP (or SNP-pair)
// marginal effect only when each of the three SNPs has P(genotype ≠ 0)
// = ½: given one SNP, the other two make the parity odd with
// probability 2q(1−q) or q² + (1−q)², q = P(genotype ≠ 0), and these are
// equal only at q = ½. Under Hardy-Weinberg that is MAF = 1 − 1/√2 ≈
// 0.2929 (GenConfig.MAFMin = MAFMax = 0.2929); at any other MAF the
// interacting SNPs carry a marginal signal. At that MAF parity is the
// canonical "needs exhaustive search" workload.
func XorPenetrance(low, high float64) [27]float64 {
	var t [27]float64
	for combo := 0; combo < 27; combo++ {
		nz := 0
		for _, g := range [3]int{combo / 9, combo / 3 % 3, combo % 3} {
			if g != 0 {
				nz++
			}
		}
		if nz%2 == 1 {
			t[combo] = high
		} else {
			t[combo] = low
		}
	}
	return t
}

// MultiplicativePenetrance returns a table where risk scales
// multiplicatively with the number of minor alleles across the triple:
// P(case) = base * factor^(total minor alleles), capped at 1.
func MultiplicativePenetrance(base, factor float64) [27]float64 {
	var t [27]float64
	for combo := 0; combo < 27; combo++ {
		sum := combo/9 + combo/3%3 + combo%3
		p := base
		for a := 0; a < sum; a++ {
			p *= factor
		}
		if p > 1 {
			p = 1
		}
		t[combo] = p
	}
	return t
}
