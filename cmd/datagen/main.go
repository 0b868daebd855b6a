// datagen generates synthetic case-control SNP datasets in the trigene
// text, binary or packed .tpack format, optionally planting a
// third-order interaction.
//
// Usage:
//
//	datagen -snps 1000 -samples 4000 -seed 1 -out data.tg
//	datagen -snps 256 -samples 2048 -interact 10,70,200 -model xor -out planted.tgb -format binary
//	datagen -snps 1000 -samples 4000 -out data.tpack -format pack   # packed; loads without a parse
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"trigene"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the testable tool body.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	snps := fs.Int("snps", 1000, "number of SNPs (M)")
	samples := fs.Int("samples", 4000, "number of samples (N)")
	seed := fs.Int64("seed", 1, "RNG seed")
	mafMin := fs.Float64("maf-min", 0.05, "minimum minor allele frequency")
	mafMax := fs.Float64("maf-max", 0.5, "maximum minor allele frequency")
	prevalence := fs.Float64("prevalence", 0.5, "baseline case probability")
	interact := fs.String("interact", "", "plant an interaction at SNPs \"i,j,k\"")
	model := fs.String("model", "threshold", "penetrance model: threshold, xor or multiplicative")
	low := fs.Float64("low", 0.1, "low case probability of the penetrance model")
	high := fs.Float64("high", 0.9, "high case probability of the penetrance model")
	out := fs.String("out", "", "output path (default stdout)")
	format := fs.String("format", "text", "output format: text, binary or pack (packed .tpack, loaded without a parse)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trigene.GenConfig{
		SNPs: *snps, Samples: *samples, Seed: *seed,
		MAFMin: *mafMin, MAFMax: *mafMax, Prevalence: *prevalence,
	}
	if *interact != "" {
		triple, err := parseTriple(*interact)
		if err != nil {
			return err
		}
		var pen [27]float64
		switch *model {
		case "threshold":
			pen = trigene.ThresholdPenetrance(3, *low, *high)
		case "xor":
			pen = trigene.XorPenetrance(*low, *high)
		case "multiplicative":
			pen = multiplicative(*low, *high)
		default:
			return fmt.Errorf("unknown penetrance model %q", *model)
		}
		cfg.Interaction = &trigene.Interaction{SNPs: triple, Penetrance: pen}
	}

	mx, err := trigene.Generate(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}
	switch *format {
	case "text":
		err = trigene.WriteText(w, mx)
	case "binary":
		err = trigene.WriteBinary(w, mx)
	case "pack":
		var sess *trigene.Session
		if sess, err = trigene.NewSession(mx); err == nil {
			err = sess.WritePack(w)
		}
	default:
		err = fmt.Errorf("unknown format %q (want text, binary or pack)", *format)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	controls, cases := mx.ClassCounts()
	fmt.Fprintf(stderr, "wrote %d SNPs x %d samples (%d controls / %d cases)\n",
		mx.SNPs(), mx.Samples(), controls, cases)
	return nil
}

func parseTriple(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("-interact needs three comma-separated SNP indices, got %q", s)
	}
	var t [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return t, fmt.Errorf("bad SNP index %q: %v", p, err)
		}
		t[i] = v
	}
	return t, nil
}

// multiplicative scales risk with the minor-allele count, from low at
// zero alleles toward high at six.
func multiplicative(low, high float64) [27]float64 {
	factor := 1.0
	if low > 0 {
		factor = math.Pow(high/low, 1.0/6)
	}
	var t [27]float64
	for combo := 0; combo < 27; combo++ {
		sum := combo/9 + combo/3%3 + combo%3
		p := low
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
