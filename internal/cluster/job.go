package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"time"

	"trigene"
	"trigene/internal/sched"
)

// One job abstraction. A job is an ordered list of phases; a phase is a
// run of lease units [base, base+count) of one tile kind; a tile yields
// one validated partial. Everything that differs between a search
// shard, a stage-1 pair-scan shard and a permutation range is in that
// kind's tileKind below, and nowhere else: the coordinator's complete →
// journal → replay → snapshot → merge path and the worker's run → post
// path go through the table and never ask which kind a tile is.

// tileKind is what the cluster knows about one kind of tile.
type tileKind struct {
	// stage is LeaseGrant.Stage of the kind's grants, what names the
	// payload in refusals.
	stage, what string
	// field picks the payload's field of a posted result (the done body
	// and the journal's complete record name it alike), slots its array in
	// a snapshot, indexed by lease unit.
	field func(*TileResult) *json.RawMessage
	slots func(*walJob) *[]json.RawMessage
	// run computes one tile on a worker; what it returns is marshalled
	// into field.
	run func(ctx context.Context, t tileRun) (any, error)
	// decode turns a payload into the tile's partial, or refuses it: the
	// one check a posted result, a replayed complete record and a
	// snapshot slot all pass before their tile counts as done. shard is
	// the tile within its phase.
	decode func(j *job, shard sched.Shard, raw json.RawMessage) (any, error)
	// close ends a phase whose tiles are all done, from their partials in
	// tile order: it leaves the job's result, or what the next phase's
	// grants need. Deterministic given the partials (recovery closes a
	// phase again rather than journaling what it computed); an error fails
	// the job, since running the tiles again would reproduce it.
	close func(j *job, parts []any, now time.Time) error
}

// tileRun is one tile as a worker's executor hands it to its kind.
type tileRun struct {
	w     *Worker
	sess  *trigene.Session
	spec  *trigene.SearchSpec
	opts  []trigene.Option // spec.Options()
	shard sched.Shard      // the tile within its phase
	// binary: the grant said BinaryReports, so a search tile's Report
	// may travel in the binary form.
	binary bool
}

// newKind completes a kind from its typed halves: validate is the door
// check of a decoded payload against the job and the tile's shard within
// its phase, close the phase close over typed partials.
func newKind[T any](k tileKind, validate func(*job, sched.Shard, *T) error, close func(*job, []*T, time.Time) error) *tileKind {
	k.decode = func(j *job, shard sched.Shard, raw json.RawMessage) (any, error) {
		v := new(T)
		if err := json.Unmarshal(raw, v); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", k.what, err)
		}
		if err := validate(j, shard, v); err != nil {
			return nil, fmt.Errorf("invalid %s: %w", k.what, err)
		}
		return v, nil
	}
	k.close = func(j *job, parts []any, now time.Time) error {
		typed := make([]*T, len(parts))
		for i, p := range parts {
			// A slot recovery could not fill stays nil; the merges refuse it.
			typed[i], _ = p.(*T)
		}
		return close(j, typed, now)
	}
	return &k
}

// searchKind: a shard of a search, Session.Search(WithShard), yielding a
// Report. Closing merges the phase's Reports in tile order
// (MergeReports' candidate ordering is order-independent, but
// determinism is easier to audit this way); after a screen phase the
// result carries the ScreenInfo that phase left — the tiles ran pinned
// and know nothing of the stage-1 scan.
var searchKind = newKind(tileKind{
	what:  "tile report",
	field: func(r *TileResult) *json.RawMessage { return &r.Report },
	slots: func(w *walJob) *[]json.RawMessage { return &w.Reports },
	run: func(ctx context.Context, t tileRun) (any, error) {
		rep, err := t.sess.Search(ctx, append(t.opts[:len(t.opts):len(t.opts)],
			trigene.WithShard(t.shard.Index, t.shard.Count), trigene.WithMetrics(t.w.reg))...)
		if err != nil {
			return nil, err
		}
		return &tileReport{Report: *rep, binary: t.binary}, nil
	},
}, validateTileReport, func(j *job, tiles []*tileReport, now time.Time) error {
	reports := make([]*trigene.Report, len(tiles))
	for i, t := range tiles {
		if t != nil {
			reports[i] = &t.Report
		}
	}
	merged, err := trigene.MergeReports(reports...)
	if err != nil {
		return fmt.Errorf("merging tile reports: %w", err)
	}
	if j.screenInfo != nil {
		info := *j.screenInfo
		info.Stage2Ns = now.Sub(j.pinnedAt).Nanoseconds()
		merged.Screen = &info
	}
	j.result = merged
	return nil
})

// tileReport is a search tile's Report in the form it travels in: the
// stable JSON object, or — from a worker whose grant said BinaryReports
// — a JSON string holding the base64 of Report.MarshalBinary. It keeps
// the form it arrived in, so a snapshot spells a slot as the complete
// record did.
type tileReport struct {
	trigene.Report
	binary bool
}

// MarshalJSON writes the tile's Report in its form.
func (t tileReport) MarshalJSON() ([]byte, error) {
	if !t.binary {
		return t.Report.MarshalJSON()
	}
	bin, err := t.Report.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(bin))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, bin)
	return append(out, '"'), nil
}

// UnmarshalJSON reads a tile's Report in either form.
func (t *tileReport) UnmarshalJSON(raw []byte) error {
	if len(raw) == 0 || raw[0] != '"' {
		t.binary = false
		return t.Report.UnmarshalJSON(raw)
	}
	var bin []byte
	if err := json.Unmarshal(raw, &bin); err != nil {
		return err
	}
	t.binary = true
	return t.Report.UnmarshalBinary(bin)
}

// validateTileReport is the search kind's door check: a Report counts
// only if it is the tile's — the job's order and objective, the tile's
// shard when its phase has several, the job's top-K limit and no more
// candidates than it — and every candidate it ranks is a well-formed
// combination of the dataset's SNPs. Anything else would merge into a
// wrong top-K or count part of the space twice. Scores need no check:
// neither form decodes a NaN or ±Inf.
func validateTileReport(j *job, shard sched.Shard, r *tileReport) error {
	order, objective, limit := j.spec.Order, j.spec.Objective, j.spec.TopK
	if order == 0 {
		order = 3
	}
	switch {
	case objective != "":
	case j.spec.Backend == "baseline":
		objective = "mi"
	default:
		objective = "k2"
	}
	if limit == 0 {
		limit = 1
	}
	if r.Order != order || r.Objective != objective {
		return fmt.Errorf("report is order-%d %q; the job searches order-%d %q", r.Order, r.Objective, order, objective)
	}
	if shard.Count > 1 && (r.Shard == nil || r.Shard.Index != shard.Index || r.Shard.Count != shard.Count) {
		got := "no shard"
		if r.Shard != nil {
			got = fmt.Sprintf("shard %d of %d", r.Shard.Index, r.Shard.Count)
		}
		return fmt.Errorf("report covers %s; the tile is shard %d of %d", got, shard.Index, shard.Count)
	}
	if l := r.TopKLimit(); l != 0 && l != limit {
		// 0: a Report from a codec that predates the limit; its list
		// length, bounded below, stands in for it in a merge.
		return fmt.Errorf("report was ranked under top-%d; the job keeps %d", l, limit)
	}
	if len(r.TopK) > limit {
		return fmt.Errorf("report ranks %d candidates; the job keeps %d", len(r.TopK), limit)
	}
	check := func(c trigene.SearchCandidate) error {
		if len(c.SNPs) != order {
			return fmt.Errorf("candidate %v has %d SNPs, want %d", c.SNPs, len(c.SNPs), order)
		}
		for i, s := range c.SNPs {
			if s < 0 || s >= j.snps || (i > 0 && s <= c.SNPs[i-1]) {
				return fmt.Errorf("candidate %v is not strictly increasing in [0, %d)", c.SNPs, j.snps)
			}
		}
		return nil
	}
	for _, c := range r.TopK {
		if err := check(c); err != nil {
			return err
		}
	}
	if len(r.TopK) > 0 {
		// The best of a tile that ranked nothing is the zero candidate.
		return check(r.Best)
	}
	return nil
}

// screenKind: a shard of a screened job's stage-1 pair scan,
// Session.ScreenStage1, yielding ScreenScores. Closing merges the
// per-shard scores bit-exactly, selects the survivor set under the
// submitted budget and pins survivors and seeds into the spec every
// later grant carries.
var screenKind = newKind(tileKind{
	stage: "screen",
	what:  "stage-1 screen scores",
	field: func(r *TileResult) *json.RawMessage { return &r.Screen },
	slots: func(w *walJob) *[]json.RawMessage { return &w.Screens },
	run: func(ctx context.Context, t tileRun) (any, error) {
		// ScreenStage1 takes its own narrow option set, not the spec's.
		opts := []trigene.Option{trigene.WithShard(t.shard.Index, t.shard.Count), trigene.WithMetrics(t.w.reg)}
		if t.spec.Objective != "" {
			opts = append(opts, trigene.WithObjective(t.spec.Objective))
		}
		if t.spec.Workers != 0 {
			opts = append(opts, trigene.WithWorkers(t.spec.Workers))
		}
		seedPairs := 0
		if t.spec.Screen != nil {
			seedPairs = t.spec.Screen.SeedPairs
		}
		return t.sess.ScreenStage1(ctx, seedPairs, opts...)
	},
}, func(j *job, _ sched.Shard, sc *trigene.ScreenScores) error {
	if sc.SNPs != j.snps {
		return fmt.Errorf("scores cover %d SNPs; the job's dataset has %d", sc.SNPs, j.snps)
	}
	return sc.ValidateShape()
}, func(j *job, scores []*trigene.ScreenScores, now time.Time) error {
	merged, err := trigene.MergeScreens(scores...)
	if err != nil {
		return fmt.Errorf("merging stage-1 scores: %w", err)
	}
	survivors, threshold, err := merged.SelectSurvivors(j.spec.Screen.MaxSurvivors)
	if err != nil {
		return fmt.Errorf("selecting screen survivors: %w", err)
	}
	order := j.spec.Order
	if order == 0 {
		order = 3
	}
	if len(survivors) < order {
		return fmt.Errorf("screen kept %d survivors, fewer than the order-%d search needs", len(survivors), order)
	}
	seeds := merged.SeedList(j.spec.Screen.SeedPairs)
	j.grantSpec.Screen = &trigene.ScreenSpec{Survivors: survivors, Seeds: seeds}
	j.screenInfo = &trigene.ScreenInfo{
		PairsScanned: merged.Pairs,
		Survivors:    len(survivors),
		SeedPairs:    len(seeds),
		Threshold:    threshold,
		Stage1Ns:     merged.DurationNs,
	}
	j.pinnedAt = now
	return nil
})

// permKind: a range of a permutation job's [0, P) index space,
// Session.PermutationSlice, yielding PermScores. Every permutation keys
// its relabeling by absolute index, so a range is bit-exact whichever
// worker runs it and however the space was cut; closing sums the hit
// counts and finalizes the p-values into the Report's Perm block. The
// shape check refuses, among others, a range drawn from another
// release's permutation stream: its hits are draws of other relabelings
// and must never be summed with this build's.
var permKind = newKind(tileKind{
	what:  "tile perm scores",
	field: func(r *TileResult) *json.RawMessage { return &r.Perm },
	slots: func(w *walJob) *[]json.RawMessage { return &w.Perms },
	run: func(ctx context.Context, t tileRun) (any, error) {
		src, err := sched.Permutations(t.spec.Perm.PermutationCount(), t.shard.Count).Shard(t.shard)
		if err != nil {
			// The coordinator sized the space at submit; a shard error here
			// is deterministic, and fails the job like any other.
			return nil, fmt.Errorf("sharding permutation space: %w", err)
		}
		b := src.Bounds()
		return t.sess.PermutationSlice(ctx, t.spec.Perm.SNPs, int(b.Lo), int(b.Hi-b.Lo),
			append(t.opts[:len(t.opts):len(t.opts)], trigene.WithMetrics(t.w.reg))...)
	},
}, func(j *job, _ sched.Shard, ps *trigene.PermScores) error {
	if err := ps.ValidateShape(); err != nil {
		return err
	}
	if len(ps.SNPs) != len(j.spec.Perm.SNPs) {
		return fmt.Errorf("scores cover %d candidates; the job tests %d", len(ps.SNPs), len(j.spec.Perm.SNPs))
	}
	return nil
}, func(j *job, ranges []*trigene.PermScores, _ time.Time) error {
	merged, err := trigene.MergePerms(ranges...)
	if err != nil {
		return fmt.Errorf("merging permutation ranges: %w", err)
	}
	rep, err := trigene.FinalizePerms(j.spec.Perm, merged, len(ranges))
	if err != nil {
		return fmt.Errorf("finalizing permutation test: %w", err)
	}
	j.result = rep
	return nil
})

// kinds is every tile kind.
var kinds = []*tileKind{searchKind, screenKind, permKind}

// payloadSize is the size of a result's payload, whichever kind's field
// carries it.
func payloadSize(res *TileResult) (n int) {
	for _, k := range kinds {
		n += len(*k.field(res))
	}
	return n
}

// grantKind is the kind of the tiles a grant carries, read off the wire
// as every release has written it: stage-1 grants say so, a permutation
// job is one whose spec has a Perm block.
func grantKind(g *LeaseGrant) *tileKind {
	switch {
	case g.Stage == screenKind.stage:
		return screenKind
	case g.Spec.Perm != nil:
		return permKind
	default:
		return searchKind
	}
}

// shard is the part of its phase a granted tile covers: a one-phase
// job's grants shard the whole space (Tile of Tiles), those of a job of
// several phases shard within each.
func (g *LeaseGrant) shard(tile int) sched.Shard {
	if g.StageCount > 0 {
		return sched.Shard{Index: tile - g.StageBase, Count: g.StageCount}
	}
	return sched.Shard{Index: tile, Count: g.Tiles}
}

// phase is a run of a job's lease units [base, base+count) of one kind.
// A phase's tiles are granted only once every earlier phase is closed.
type phase struct {
	kind        *tileKind
	base, count int
}

func (p phase) end() int { return p.base + p.count }

// job is the coordinator-side state of one job.
type job struct {
	id, name string
	spec     trigene.SearchSpec
	// tiles counts the job's lease units, screenTiles those of them that
	// are stage-1 shards: the sizing the job was submitted with, which the
	// journal and snapshots hand back to newJob.
	tiles, screenTiles int
	state, err         string

	// pos is the journal position of the job's last transition a client
	// can observe (submit, complete, release, finish): status, result
	// and the acks of those transitions wait until it is durable. No tile
	// is granted before the submission itself is (submitPos).
	pos, submitPos uint64

	dataset       []byte // packed .tpack bytes, shared by the running jobs on one hash; released when the job leaves StateRunning
	datasetSHA    string // dataset content hash (Session.DatasetHash)
	snps, samples int

	leases  *sched.LeaseTable
	grantee map[int]granteeRef // tile -> holder of its current lease
	result  *trigene.Report

	// phases[open] is the first phase not closed yet — the only one whose
	// tiles are granted — and partials holds one slot per lease unit: the
	// decoded, validated payload of a completed tile.
	phases   []phase
	open     int
	partials []any

	// grantSpec is the spec grants carry: the submitted one, until a
	// closing phase pins its outcome into it. screenInfo and pinnedAt are
	// what a closed screen phase leaves for the merged Report.
	grantSpec  trigene.SearchSpec
	screenInfo *trigene.ScreenInfo
	pinnedAt   time.Time

	submitted time.Time
	finished  time.Time
}

// newJob builds the running job a submit record describes — the one
// constructor behind a live submission, a replayed one and a snapshot's
// — and derives its phases: a permutation job is one phase of ranges; a
// screened job (screenTiles > 0: Screen set, survivors not pinned)
// leases its stage-1 pair scan as screenTiles units ahead of the search
// tiles; anything else is one search phase.
func newJob(rec walRecord) *job {
	j := &job{
		id:          rec.Job,
		name:        rec.Name,
		tiles:       rec.Tiles,
		screenTiles: rec.ScreenTiles,
		state:       StateRunning,
		datasetSHA:  rec.SHA,
		snps:        rec.SNPs,
		samples:     rec.Samples,
		leases:      sched.NewLeaseTable(rec.Tiles),
		grantee:     make(map[int]granteeRef),
		partials:    make([]any, rec.Tiles),
		submitted:   time.Unix(0, rec.UnixNs),
	}
	if rec.Spec != nil {
		j.spec = *rec.Spec
	}
	j.grantSpec = j.spec
	switch {
	case j.spec.Perm != nil:
		j.phases = []phase{{permKind, 0, j.tiles}}
	case j.screenTiles > 0:
		j.phases = []phase{{screenKind, 0, j.screenTiles}, {searchKind, j.screenTiles, j.tiles - j.screenTiles}}
	default:
		j.phases = []phase{{searchKind, 0, j.tiles}}
	}
	return j
}

// grantable is the end of the lease units open for granting: those of
// later phases are held back until the open one closes, so a grant never
// mixes phases.
func (j *job) grantable() int { return j.phases[j.open].end() }

// decode runs a tile's posted, replayed or snapshotted result through
// its kind's decode.
func (j *job) decode(tile int, res *TileResult) (any, error) {
	for _, ph := range j.phases {
		if tile >= ph.base && tile < ph.end() {
			return ph.kind.decode(j, sched.Shard{Index: tile - ph.base, Count: ph.count}, *ph.kind.field(res))
		}
	}
	return nil, fmt.Errorf("tile %d is outside the job's %d lease units", tile, j.tiles)
}

// finish moves the job out of StateRunning, releasing what only a
// running job needs.
func (j *job) finish(state, errMsg string, at time.Time) {
	j.state = state
	j.err = errMsg
	j.dataset = nil
	j.partials = nil
	j.grantee = nil
	j.finished = at
}

// status snapshots a job (caller holds c.mu).
func (j *job) status(now time.Time) JobStatus {
	st := JobStatus{
		ID:              j.id,
		Name:            j.name,
		State:           j.state,
		Spec:            j.spec,
		SNPs:            j.snps,
		Samples:         j.samples,
		Tiles:           j.tiles,
		Done:            j.leases.Done(),
		Leased:          j.leases.Outstanding(now),
		ScreenTiles:     j.screenTiles,
		ScreenDone:      j.leases.DoneBelow(j.screenTiles),
		Error:           j.err,
		SubmittedUnixMs: j.submitted.UnixMilli(),
	}
	if !j.finished.IsZero() {
		st.DurationMs = float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return st
}
