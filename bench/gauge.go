package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// The host gauge. This host's cores change speed under the benchmark: the
// same loop takes 36, 45, 65 or 90 ms from one second to the next, with no
// steal time reported, in regimes that last minutes to hours. A run's wall
// times then say which states the run fell into, not how fast the program
// is: two sets of ten 30 s runs of one commit gave medians with quartiles
// 25 % apart. So every timed call of an end-to-end repetition sits between
// two readings of a fixed reference loop — AND3 + popcount over L1-resident
// planes, on P goroutines at once, about 7 ms — and the end-to-end times
// and rates are reported "at reference speed" (refSeconds): what a call
// takes, or does per second, on a host whose every thread runs the
// reference loop at gaugeWordsPerS. The loop is part of the benchmark and
// never of the program, so a change to the program cannot move it.

const (
	gaugeWords = 1024 // words per plane: 3 x 8 KiB, inside L1d
	// gaugeWordsPerS is the reference speed: what one thread of this host
	// reaches in its fast state, so that times at reference speed read as
	// this host's undisturbed times.
	gaugeWordsPerS = 1.6e9
)

// gaugeIters is the passes over the planes per reading (the smoke test
// takes fewer).
var gaugeIters = 10000

var gaugePlanes = func() (p [3][]uint64) {
	for k := range p {
		p[k] = make([]uint64, gaugeWords)
		for i := range p[k] {
			p[k][i] = uint64(i+k+1) * 0x9e3779b97f4a7c15
		}
	}
	return p
}()

var gaugeSink int

// hostSpeed runs the reference loop on p goroutines at once and returns
// their mean speed as a share of gaugeWordsPerS.
func hostSpeed(p int) float64 {
	speeds, counts := make([]float64, p), make([]int, p)
	var wg sync.WaitGroup
	for g := range speeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b, c := gaugePlanes[0], gaugePlanes[1], gaugePlanes[2]
			n, start := 0, time.Now()
			for k := 0; k < gaugeIters; k++ {
				for i := range a {
					n += bits.OnesCount64(a[i] & b[i] & c[i])
				}
			}
			speeds[g] = float64(gaugeIters*gaugeWords) / time.Since(start).Seconds() / gaugeWordsPerS
			counts[g] = n
		}()
	}
	wg.Wait()
	total := 0.0
	for g := range speeds {
		total += speeds[g]
		gaugeSink += counts[g] // keeps the loop from being optimised away
	}
	return total / float64(p)
}

// gauge hands out readings of hostSpeed, reusing one taken less than a
// millisecond ago: the reading that ends one timed call starts the next.
// Repetitions run one after another, so one goroutine reads it.
type gauge struct {
	at  time.Time
	val float64
	all []float64 // every reading taken, for the run's record
}

var host gauge

func (g *gauge) read() float64 {
	if g.at.IsZero() || time.Since(g.at) > time.Millisecond {
		g.val = hostSpeed(workers())
		g.at = time.Now()
		g.all = append(g.all, g.val)
	}
	return g.val
}

// timing is one timed call: its wall time and the host's speed around it
// (the mean of the readings before and after; 0 = not gauged).
type timing struct{ wall, speed float64 }

// timed runs fn between two readings of the host gauge.
func timed(fn func() error) (timing, error) {
	before := host.read()
	start := time.Now()
	err := fn()
	wall := time.Since(start).Seconds()
	return timing{wall: wall, speed: (before + host.read()) / 2}, err
}

// refSeconds is what one call takes at reference speed, estimated from
// repeated calls: wall = a / speed fitted through all of them at once, a =
// sum of walls / sum of 1/speed. The host changes state within a
// repetition, so two 7 ms readings say too little about one call to correct
// it alone (within a run, wall and speed correlate at -0.3 to -0.8), but
// over a run's calls the errors cancel. The tenth of the calls with the
// smallest wall x speed and the tenth with the largest are left out first.
func refSeconds(ts []timing) float64 {
	s := append([]timing(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall*s[i].speed < s[j].wall*s[j].speed })
	s = s[len(s)/10 : len(s)-len(s)/10]
	var wall, perSpeed float64
	for _, t := range s {
		wall += t.wall
		perSpeed += 1 / t.speed
	}
	return wall / perSpeed
}

// scaled is every call's wall x speed: the spread behind a refSeconds.
func scaled(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall * t.speed
	}
	return out
}
