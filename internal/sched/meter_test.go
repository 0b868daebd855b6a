package sched

import (
	"sync"
	"testing"
	"time"
)

func TestMeterRates(t *testing.T) {
	m := NewThroughputMeter(3)
	m.Record(0, 1000, time.Second)
	m.Record(1, 4000, time.Second)
	if r := m.Rate(0); r < 999 || r > 1001 {
		t.Errorf("rate(0) = %g, want ~1000", r)
	}
	if r := m.Rate(1); r < 3999 || r > 4001 {
		t.Errorf("rate(1) = %g, want ~4000", r)
	}
	if r := m.Rate(2); r != 0 {
		t.Errorf("idle consumer rate = %g", r)
	}
	if m.Items(1) != 4000 {
		t.Errorf("items(1) = %d", m.Items(1))
	}
}

func TestMeterOutOfRangeIsNoop(t *testing.T) {
	m := NewThroughputMeter(1)
	m.Record(-1, 100, time.Second)
	m.Record(5, 100, time.Second)
	if m.Items(0) != 0 || m.Rate(-1) != 0 || m.Items(9) != 0 {
		t.Error("out-of-range consumer leaked into the meter")
	}
}

// TestMeterSuggestGrains: the suggestion is the measured rate ratio,
// withheld until both sides have warmed up, and clamped.
func TestMeterSuggestGrains(t *testing.T) {
	m := NewThroughputMeter(2)
	// Cold meter: no suggestion either way.
	if g := m.SuggestGrains(1, 64); g != 0 {
		t.Errorf("cold suggestion = %d, want 0", g)
	}
	m.Record(0, 10*meterWarmupItems, time.Second) // CPU side: 10240/s
	// Device warmed but peers cold / vice versa still withholds.
	if g := m.SuggestGrains(0, 64); g != 0 {
		t.Errorf("half-warm suggestion = %d, want 0", g)
	}
	m.Record(1, 60*meterWarmupItems, time.Second) // device: 6x faster
	if g := m.SuggestGrains(1, 64); g != 6 {
		t.Errorf("suggestion = %d, want 6", g)
	}
	// The slow side never drops below 1.
	if g := m.SuggestGrains(0, 64); g != 1 {
		t.Errorf("slow-side suggestion = %d, want 1", g)
	}
	// The cap clamps.
	if g := m.SuggestGrains(1, 4); g != 4 {
		t.Errorf("capped suggestion = %d, want 4", g)
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewThroughputMeter(4)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(c, 10, time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < 4; c++ {
		if m.Items(c) != 10000 {
			t.Errorf("consumer %d items = %d, want 10000", c, m.Items(c))
		}
	}
}
