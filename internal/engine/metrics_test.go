package engine

import (
	"strconv"
	"strings"
	"testing"

	"trigene/internal/combin"
	"trigene/internal/obs"
	"trigene/internal/sched"
)

// TestEveryRunIsMetered: every search goes through the one run loop, so
// every search records the same series. An order-2 search, an order-4
// search, a pair screen and a seeded extension run one after another
// against one registry; for each, the scrape's growth must show
// trigene_engine_combinations_total under the run's approach label equal
// to its Stats.Combinations — for the seeded run, whose subset mask skips
// ranks, the combinations scored, not the ranks claimed — and claims in
// trigene_sched_tiles_claimed_total under its space label, and the run's
// Meter must have been fed every item of its space.
func TestEveryRunIsMetered(t *testing.T) {
	const m = 14
	s, err := New(randomMatrix(206, m, 200))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []Pair{{1, 5}, {2, 9}}
	inSubset := make([]bool, m)
	inSubset[1], inSubset[5], inSubset[7] = true, true, true
	reg := obs.NewRegistry()
	for _, run := range []struct {
		name, label string
		items       int64 // ranks of the run's space
		search      func(Options) (Stats, error)
	}{
		{"order 2", "pair", combin.Pairs(m), func(o Options) (Stats, error) {
			res, err := s.RunPairs(o)
			return stats(res, err)
		}},
		{"order 4", "kway", combin.Binomial(m, 4), func(o Options) (Stats, error) {
			res, err := s.RunK(4, o)
			return stats(res, err)
		}},
		{"pair screen", "pair", combin.Pairs(m), func(o Options) (Stats, error) {
			res, err := s.RunPairScreen(o)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}},
		{"seeded", "seeded", int64(len(seeds) * m), func(o Options) (Stats, error) {
			res, err := s.RunSeeded(seeds, inSubset, o)
			return stats(res, err)
		}},
	} {
		before := scrape(t, reg)
		meter := sched.NewThroughputMeter(2)
		st, err := run.search(Options{Workers: 2, TopK: 3, Metrics: reg, Meter: meter})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		after := scrape(t, reg)
		grew := func(series string) int64 { return int64(after[series] - before[series]) }
		if got := grew(`trigene_engine_combinations_total{approach="` + run.label + `"}`); got != st.Combinations || got == 0 {
			t.Errorf("%s: combinations_total{approach=%q} grew by %d, the run scored %d", run.name, run.label, got, st.Combinations)
		}
		if grew(`trigene_sched_tiles_claimed_total{space="`+run.label+`"}`) == 0 {
			t.Errorf("%s: no tiles_claimed_total{space=%q}", run.name, run.label)
		}
		if got := meter.Items(0) + meter.Items(1); got != run.items {
			t.Errorf("%s: meter recorded %d items, the space holds %d", run.name, got, run.items)
		}
	}
}

func stats(res *Result, err error) (Stats, error) {
	if err != nil {
		return Stats{}, err
	}
	return res.Stats, nil
}

// scrape reads every series of the registry's exposition into a map
// keyed by the series as exposed (name and labels).
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var expo strings.Builder
	if _, err := reg.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(expo.String(), "\n") {
		at := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || at < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		series[line[:at]] = v
	}
	return series
}
