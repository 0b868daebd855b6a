// Package trigene is a pure-Go library for exhaustive third-order
// (3-way) epistasis detection in case-control GWAS datasets, together
// with the device-evaluation toolkit of the paper it reproduces:
//
//	"Unlocking Personalized Healthcare on Modern CPUs/GPUs:
//	 Three-way Gene Interaction Study" (Marques et al., IPDPS 2022)
//
// The package is a facade over the implementation packages:
//
//   - dataset handling: genotype matrices, binarized forms, synthetic
//     generation with planted interactions, text/binary codecs;
//   - the search engine with the paper's four CPU approaches (naive,
//     phenotype-split, cache-blocked, lane-vectorized) and K2/MI/Gini
//     objectives;
//   - a GPU simulator executing the paper's four GPU kernels with a
//     coalescing-aware memory model over the Table II device catalog;
//   - the tile scheduler: one work-distribution core every backend
//     consumes, which makes sharding and work-stealing heterogeneous
//     execution backend-agnostic properties of the search space;
//   - the distributed cluster: a coordinator leases tiles over
//     HTTP/JSON to worker processes (the trigened daemon), with
//     deadline-bearing heartbeat-renewed leases and exactly-once tile
//     accounting, reachable from the public API through WithCluster;
//   - the Cache-Aware Roofline Model and analytical device performance
//     models that regenerate the paper's figures and tables; no search
//     reads them (a time-budgeted screen, ScreenSpec.BudgetSeconds, is
//     priced by the rate its own exhaustive search measures).
//
// The public search surface is the Session/Backend API: a Session
// validates a dataset once and serves concurrent searches, a Backend
// makes every execution engine (CPU, GPUSim, Baseline, Hetero) a
// pluggable component, and the single context-first
// Session.Search(ctx, ...Option) call returns one order-generic
// Report on every path:
//
//	mx, err := trigene.Generate(trigene.GenConfig{SNPs: 1000, Samples: 4000, Seed: 1})
//	if err != nil { ... }
//	sess, err := trigene.NewSession(mx)
//	if err != nil { ... }
//	rep, err := sess.Search(ctx, trigene.WithTopK(5))
//	if err != nil { ... }
//	fmt.Println(rep.Best.SNPs, rep.Best.Score)
//
// The pre-Session entry points (Search, SearchPairs, SearchK,
// SimulateGPU, BaselineSearch, SearchHeterogeneous, PermutationTest*)
// were removed after one deprecation release; see README.md for the
// migration table.
package trigene

import (
	"io"

	"trigene/internal/contingency"
	"trigene/internal/dataset"
	"trigene/internal/device"
	"trigene/internal/engine"
	"trigene/internal/gpusim"
	"trigene/internal/permtest"
	"trigene/internal/score"
)

// Matrix is a case-control genotype matrix: M SNPs by N samples with
// genotypes in {0,1,2} and phenotypes in {0 control, 1 case}.
type Matrix = dataset.Matrix

// GenConfig parameterizes the synthetic dataset generator.
type GenConfig = dataset.GenConfig

// Interaction plants a third-order epistatic signal in generated data.
type Interaction = dataset.Interaction

// PairInteraction plants a second-order signal in generated data.
type PairInteraction = dataset.PairInteraction

// Kernel names the implementation of the fused order-3 kernel (the
// default approach, V4F) selected for this host when the program
// started: "avx512-vpopcntdq" or "portable". Nothing selects it by
// hand; it is reported so that a measurement says which path made it.
func Kernel() string { return contingency.Kernel() }

// NewMatrix returns a zeroed M-by-N genotype matrix.
func NewMatrix(m, n int) *Matrix { return dataset.NewMatrix(m, n) }

// Generate builds a synthetic case-control dataset.
func Generate(cfg GenConfig) (*Matrix, error) { return dataset.Generate(cfg) }

// ThresholdPenetrance builds a penetrance table where genotype triples
// carrying at least minMinor minor alleles have case probability high,
// the rest low.
func ThresholdPenetrance(minMinor int, low, high float64) [27]float64 {
	return dataset.ThresholdPenetrance(minMinor, low, high)
}

// XorPenetrance builds a parity penetrance table. It is free of marginal
// effects only at P(genotype ≠ 0) = ½ per SNP, that is MAF ≈ 0.2929
// under Hardy-Weinberg; see dataset.XorPenetrance.
func XorPenetrance(low, high float64) [27]float64 {
	return dataset.XorPenetrance(low, high)
}

// ReadText parses the line-oriented dataset text format.
func ReadText(r io.Reader) (*Matrix, error) { return dataset.ReadText(r) }

// WriteText serializes a dataset in the text format.
func WriteText(w io.Writer, mx *Matrix) error { return dataset.WriteText(w, mx) }

// ReadBinary parses the compact binary dataset format.
func ReadBinary(r io.Reader) (*Matrix, error) { return dataset.ReadBinary(r) }

// WriteBinary serializes a dataset in the binary format.
func WriteBinary(w io.Writer, mx *Matrix) error { return dataset.WriteBinary(w, mx) }

// ReadPED parses a PLINK .ped file (samples in rows, two allele
// columns per SNP, phenotype 1=control / 2=case).
func ReadPED(r io.Reader) (*Matrix, error) { return dataset.ReadPED(r) }

// ReadRAW parses a PLINK additive-recode .raw file (samples in rows,
// one 0/1/2 dosage column per SNP, phenotype 1=control / 2=case).
func ReadRAW(r io.Reader) (*Matrix, error) { return dataset.ReadRAW(r) }

// ReadVCF parses a bi-allelic VCF subset; phen supplies per-sample
// phenotypes in header order.
func ReadVCF(r io.Reader, phen []uint8) (*Matrix, error) { return dataset.ReadVCF(r, phen) }

// Approach numbers the paper's optimization stages. The CPU backend runs
// the lanes pass, V4Fused (its default, on the host's tuned bodies) or
// V3Fused (the portable Go bodies); V1Naive..V4Vector name the simulated
// GPU's kernels (GPUSim) and the planner's prices, and the CPU backend
// refuses them.
type Approach = engine.Approach

// The approaches: the paper's four stages in optimization order, then
// the CPU's two arms of the lanes pass.
const (
	V1Naive   = engine.V1Naive
	V2Split   = engine.V2Split
	V3Blocked = engine.V3Blocked
	V4Vector  = engine.V4Vector
	V3Fused   = engine.V3Fused
	V4Fused   = engine.V4Fused
)

// ParseApproach accepts the CPU backend's approaches: "V3F"/"V4F" (or
// their numeric wire forms "V5"/"V6"), plain digits 5 and 6, or the
// descriptive names "fused-blocked" and "fused", all case-insensitively.
// The simulated GPU's kernels parse with ParseGPUKernel.
func ParseApproach(s string) (Approach, error) { return engine.ParseApproach(s) }

// ParseGPUKernel accepts "V1".."V4", the fused "V4F" (or its numeric
// wire form "V5"), plain digits, or the descriptive names "naive",
// "split", "transposed", "tiled" and "fused", case-insensitively.
func ParseGPUKernel(s string) (GPUKernel, error) { return gpusim.ParseKernel(s) }

// Objective ranks contingency tables; see NewObjective.
type Objective = score.Objective

// NewObjective returns the named objective: "k2" (Bayesian K2, the
// paper's criterion), "mi" (mutual information) or "gini".
func NewObjective(name string, maxSamples int) (Objective, error) {
	return score.New(name, maxSamples)
}

// GPUDevice describes one GPU from the paper's Table II.
type GPUDevice = device.GPU

// CPUDevice describes one CPU system from the paper's Table I.
type CPUDevice = device.CPU

// GPUs returns the Table II catalog in paper order.
func GPUs() []GPUDevice { return device.AllGPUs() }

// CPUs returns the Table I catalog in paper order.
func CPUs() []CPUDevice { return device.AllCPUs() }

// GPUByID looks up a Table II device by its paper label (e.g. "GN1").
func GPUByID(id string) (GPUDevice, error) { return device.GPUByID(id) }

// CPUByID looks up a Table I device by its paper label (e.g. "CI3").
func CPUByID(id string) (CPUDevice, error) { return device.CPUByID(id) }

// GPUKernel selects one of the paper's four GPU approaches
// (GPUNaive, GPUSplit, GPUTransposed, GPUTiled).
type GPUKernel = gpusim.Kernel

// The four GPU kernels, in the paper's optimization order.
const (
	GPUNaive      = gpusim.K1Naive
	GPUSplit      = gpusim.K2Split
	GPUTransposed = gpusim.K3Transposed
	GPUTiled      = gpusim.K4Tiled
)

// GPUStats aggregates the executed operations, memory behaviour and
// modeled timing of a simulated search (Report.GPU).
type GPUStats = gpusim.Stats

// PermResult summarizes a permutation test
// (Session.PermutationTest).
type PermResult = permtest.Result
