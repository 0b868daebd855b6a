package engine

import (
	"math"

	"trigene/internal/score"
	"trigene/internal/topk"
)

// TopK accumulates the k best candidates of one order — a worker's, a
// run's merged list, or a simulator's or baseline's ranking — through
// the shared bounded sorted-insert (internal/topk), in the order every
// backend shares: objective first, lexicographic SNPs as the tie-break.
// The comparator is built once per reset, so Offer is allocation-free
// once the slice has grown to k entries — the hot-path requirement the
// scheduler arenas rely on.
type TopK struct {
	obj   score.Objective
	k     int
	items []Candidate
	cmp   func(a, b Candidate) bool
}

// NewTopK returns an empty accumulator of the k best under obj.
func NewTopK(obj score.Objective, k int) *TopK {
	t := &TopK{obj: obj, k: k, items: make([]Candidate, 0, k)}
	t.cmp = t.better
	return t
}

// reset prepares a pooled accumulator for a new consumer, keeping the
// backing array.
func (t *TopK) reset(obj score.Objective, k int) {
	t.obj, t.k = obj, k
	t.items = t.items[:0]
	if t.cmp == nil {
		t.cmp = t.better
	}
}

// better orders candidates: objective score first, lexicographic SNPs
// as the deterministic tie-break.
func (t *TopK) better(a, b Candidate) bool {
	if a.Score != b.Score {
		return t.obj.Better(a.Score, b.Score)
	}
	return a.Less(b)
}

// Offer inserts the candidate if it ranks among the k best seen. A full
// list turns most candidates away on their score alone, before Insert's
// comparator is called; ties with the worst kept go on to its
// tie-break.
func (t *TopK) Offer(c Candidate) {
	if n := len(t.items); n == t.k && n > 0 {
		if worst := t.items[n-1].Score; c.Score != worst && !t.obj.Better(c.Score, worst) {
			return
		}
	}
	t.items = topk.Insert(t.items, c, t.k, t.cmp)
}

// bound is, for a lower-is-better objective, the score above which Offer
// turns a candidate away on its score alone: the worst kept score once the
// list is full, +Inf while it fills. It only ever comes down.
func (t *TopK) bound() float64 {
	if n := len(t.items); n == t.k && n > 0 {
		return t.items[n-1].Score
	}
	return math.Inf(1)
}

// merge folds another accumulator's candidates into t.
func (t *TopK) merge(o *TopK) {
	for _, c := range o.items {
		t.Offer(c)
	}
}

// List returns a copy of the accumulated candidates, best first. The
// copy detaches the result from the pooled backing array.
func (t *TopK) List() []Candidate {
	if len(t.items) == 0 {
		return nil
	}
	return append([]Candidate(nil), t.items...)
}
