package trigene

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestCoreDoesNotLinkModels pins the layering of the module: the
// packages a search runs on — engine, the encoded-dataset store, the
// scheduler, the kernels, the objectives, the permutation test, the
// dataset formats and the bit vectors — reach none of the packages that
// model devices, simulate the GPU, run the baseline or price runs. A core
// package that needs a number from a model takes it as an argument.
// cluster is not on the list: it serves jobs through the root package,
// which imports gpusim for its simulated-GPU backend. The walk reads
// the non-test imports of each package's files, with and without the
// purego tag.
func TestCoreDoesNotLinkModels(t *testing.T) {
	core := []string{"engine", "store", "sched", "contingency", "score", "permtest", "dataset", "bitvec"}
	models := []string{"carm", "perfmodel", "device", "gpusim", "hetero", "mpi3snp", "plan"}
	for _, tags := range [][]string{nil, {"purego"}} {
		ctx := build.Default
		ctx.BuildTags = tags
		for _, pkg := range core {
			from := map[string]string{} // package -> the package that imported it
			walkImports(t, &ctx, "trigene/internal/"+pkg, "", from)
			for _, m := range models {
				dep := "trigene/internal/" + m
				if _, ok := from[dep]; !ok {
					continue
				}
				chain := []string{dep}
				for p := from[dep]; p != ""; p = from[p] {
					chain = append([]string{p}, chain...)
				}
				t.Errorf("tags %v: %s reaches %s: %s", tags, pkg, m, strings.Join(chain, " -> "))
			}
		}
	}
}

// walkImports records path, imported by importer, and every module
// package it reaches through non-test imports.
func walkImports(t *testing.T, ctx *build.Context, path, importer string, from map[string]string) {
	t.Helper()
	if _, ok := from[path]; ok {
		return
	}
	from[path] = importer
	pkg, err := ctx.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, "trigene/")), 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasPrefix(imp, "trigene/") {
			walkImports(t, ctx, imp, path, from)
		}
	}
}

// TestSearchDoesNotImportPlanner pins that no search reads the planner:
// a budget screen is priced by the rate its own exhaustive search
// measures, so the root package's non-test files, with and without the
// purego tag, import no trigene/internal/plan.
func TestSearchDoesNotImportPlanner(t *testing.T) {
	for _, tags := range [][]string{nil, {"purego"}} {
		ctx := build.Default
		ctx.BuildTags = tags
		pkg, err := ctx.ImportDir(".", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if imp == "trigene/internal/plan" {
				t.Errorf("tags %v: the root package imports %s", tags, imp)
			}
		}
	}
}
