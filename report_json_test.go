package trigene

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenReport is a fully populated Report as built by a sharded
// simulated-GPU search.
func goldenReport() *Report {
	var gpu GPUStats
	gpu.Combinations = 120
	gpu.Elements = 480000
	gpu.Transactions = 77
	gpu.ModelSeconds = 0.25
	gpu.ElementsPerSec = 1920000
	gpu.ElementsPerCyclePer.CU = 1.5
	gpu.ElementsPerCyclePer.StreamCore = 0.25
	return &Report{
		Backend:   "gpusim:GN1",
		Approach:  "V4",
		Objective: "k2",
		Order:     3,
		Best:      SearchCandidate{SNPs: []int{3, 9, 15}, Score: 1234.5},
		TopK: []SearchCandidate{
			{SNPs: []int{3, 9, 15}, Score: 1234.5},
			{SNPs: []int{1, 2, 3}, Score: 1200.25},
		},
		topK:           5, // requested depth, deeper than the list
		Combinations:   120,
		Elements:       480000,
		Duration:       1500 * time.Millisecond,
		ElementsPerSec: 1920000,
		Shard:          &ShardInfo{Index: 1, Count: 4, Lo: 30, Hi: 60, Space: ShardSpaceRanks},
		GPU:            &gpu,
		Hetero:         &HeteroInfo{CPUFraction: 0.375, ModeledCombinedGElems: 3300},
		Screen: &ScreenInfo{
			PairsScanned: 276,
			Survivors:    12,
			SeedPairs:    4,
			Threshold:    987.125,
			Stage1Ns:     25000000,
			Stage2Ns:     75000000,
		},
	}
}

// goldenReportJSON pins the wire format: any change to these bytes is
// a breaking change of the cluster protocol and of the `trigened
// result` / `epistasis -json` output.
const goldenReportJSON = `{"backend":"gpusim:GN1","approach":"V4","objective":"k2","order":3,` +
	`"best":{"snps":[3,9,15],"score":1234.5},` +
	`"topK":[{"snps":[3,9,15],"score":1234.5},{"snps":[1,2,3],"score":1200.25}],"topKLimit":5,` +
	`"combinations":120,"elements":480000,"durationNs":1500000000,"elementsPerSec":1920000,` +
	`"shard":{"index":1,"count":4,"lo":30,"hi":60,"space":"combination-ranks"},` +
	`"gpu":{"combinations":120,"elements":480000,"aluOps":0,"popcntOps":0,"loads":0,` +
	`"requestedBytes":0,"transactions":77,"l2Hits":0,"l2Misses":0,"l2Bytes":0,"dramBytes":0,` +
	`"scheduledThreads":0,"activeThreads":0,"utilization":0,` +
	`"computeCycles":0,"memoryCycles":0,"cycles":0,"modelSeconds":0.25,` +
	`"elementsPerSec":1920000,"elementsPerCyclePer":{"cu":1.5,"streamCore":0.25}},` +
	`"hetero":{"cpuFraction":0.375,"modeledCombinedGElems":3300},` +
	`"screen":{"pairsScanned":276,"survivors":12,"seedPairs":4,"threshold":987.125,` +
	`"stage1Ns":25000000,"stage2Ns":75000000}}`

// TestReportJSONGolden pins the serialized bytes and the round trip:
// marshal matches the golden string, unmarshal reproduces the exported
// fields, and a re-marshal is byte-identical.
func TestReportJSONGolden(t *testing.T) {
	rep := goldenReport()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != goldenReportJSON {
		t.Errorf("wire format drifted:\n got %s\nwant %s", raw, goldenReportJSON)
	}

	var back Report
	if err := json.Unmarshal([]byte(goldenReportJSON), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", back, *rep)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != goldenReportJSON {
		t.Errorf("re-marshal drifted:\n got %s", again)
	}
}

// legacyPlanJSON is the "plan" block autotuned Reports carried, as the
// last releases with autotuning wrote it.
const legacyPlanJSON = `"plan":{"backend":"hetero","approach":"V4","workers":72,` +
	`"cpuFraction":0.25,"predictedCpuGElems":822.5,"predictedGpuGElems":2467.5,` +
	`"predictedCombosPerSec":200000,` +
	`"cpuDevice":"CI3","gpuDevice":"GN1","reason":"split CI3:GN1 at 25% CPU by modeled throughput"}`

// legacyGrainPlanJSON is the block as Reports wrote it while plans
// still cut the run: with the grain, the device's claim seed and the
// tile rate.
const legacyGrainPlanJSON = `"plan":{"backend":"hetero","approach":"V4","workers":72,"grain":4096,` +
	`"cpuFraction":0.25,"gpuGrains":12,"predictedCpuGElems":822.5,"predictedGpuGElems":2467.5,` +
	`"predictedCombosPerSec":200000,"predictedTilesPerSec":48.83,` +
	`"cpuDevice":"CI3","gpuDevice":"GN1","reason":"split CI3:GN1 at 25% CPU by modeled throughput"}`

// TestReportJSONPlanGolden: a Report written by an autotuned run carries
// a "plan" block before "screen". It still decodes, to the Report
// without the block, and re-marshals to the plan-less golden.
func TestReportJSONPlanGolden(t *testing.T) {
	rep := goldenReport()
	at := strings.Index(goldenReportJSON, `"screen":`)
	for name, plan := range map[string]string{"plan": legacyPlanJSON, "plan with grain keys": legacyGrainPlanJSON} {
		var back Report
		if err := json.Unmarshal([]byte(goldenReportJSON[:at]+plan+","+goldenReportJSON[at:]), &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(&back, rep) {
			t.Errorf("%s: legacy block changed the report:\n got %+v\nwant %+v", name, back, *rep)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != goldenReportJSON {
			t.Errorf("%s: re-marshal kept the block:\n got %s", name, again)
		}
	}
}

// goldenTraceJSON pins the "trace" key of the wire format.
const goldenTraceJSON = `"trace":{"spans":[` +
	`{"name":"plan","startNs":0,"durationNs":2000000},` +
	`{"name":"search","startNs":2000000,"durationNs":1498000000},` +
	`{"name":"encode","startNs":2000000,"durationNs":40000000},` +
	`{"name":"merge","startNs":1500000000,"durationNs":3000000}]}`

// TestReportJSONTraceGolden: a traced Report (WithTrace) carries its
// phase timeline on the wire, byte-stable and round-trip clean. (The
// trace-less goldens above prove the key is absent when tracing is
// off.)
func TestReportJSONTraceGolden(t *testing.T) {
	rep := goldenReport()
	rep.Trace = &TraceInfo{Spans: []TraceSpan{
		{Name: "plan", StartNs: 0, DurationNs: 2e6},
		{Name: "search", StartNs: 2e6, DurationNs: 1498e6},
		{Name: "encode", StartNs: 2e6, DurationNs: 40e6},
		{Name: "merge", StartNs: 1500e6, DurationNs: 3e6},
	}}
	want := goldenReportJSON[:len(goldenReportJSON)-1] + "," + goldenTraceJSON + "}"

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != want {
		t.Errorf("trace wire format drifted:\n got %s\nwant %s", raw, want)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("trace round trip changed the report:\n got %+v\nwant %+v", back, *rep)
	}
	if !reflect.DeepEqual(back.Trace, rep.Trace) {
		t.Errorf("trace round trip: %+v != %+v", back.Trace, rep.Trace)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Errorf("trace re-marshal drifted:\n got %s", again)
	}

	// A merge of deserialized shard Reports keeps the timeline and
	// appends its own "merge" span after the last recorded one.
	merged, err := MergeReports(&back, &back)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Trace == nil {
		t.Fatal("merge dropped the trace")
	}
	spans := merged.Trace.Spans
	last := spans[len(spans)-1]
	if last.Name != "merge" {
		t.Errorf("merged trace does not end in a merge span: %+v", spans)
	}
	if len(spans) != len(rep.Trace.Spans)+1 {
		t.Errorf("merged trace has %d spans, want %d", len(spans), len(rep.Trace.Spans)+1)
	}
	if want := int64(1503e6); last.StartNs != want {
		t.Errorf("merge span starts at %d, want %d (end of the prior timeline)", last.StartNs, want)
	}
}

// TestReportJSONSparse: a minimal report (no shard/GPU/hetero, no
// candidates) omits its optional keys and survives the round trip.
func TestReportJSONSparse(t *testing.T) {
	rep := &Report{Backend: "cpu", Approach: "V2", Objective: "mi", Order: 2}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"backend":"cpu","approach":"V2","objective":"mi","order":2,` +
		`"best":{"snps":null,"score":0},"combinations":0,"elements":0,"durationNs":0,"elementsPerSec":0}`
	if string(raw) != want {
		t.Errorf("sparse wire format:\n got %s\nwant %s", raw, want)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("sparse round trip changed the report: %+v", back)
	}
}

// TestReportJSONValueAndPointer: the codec applies whether the Report
// is marshaled as a value or through a pointer (both appear in
// handlers and tools).
func TestReportJSONValueAndPointer(t *testing.T) {
	rep := goldenReport()
	byValue, err := json.Marshal(*rep)
	if err != nil {
		t.Fatal(err)
	}
	byPointer, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(byValue) != string(byPointer) {
		t.Errorf("value/pointer marshal disagree:\n%s\n%s", byValue, byPointer)
	}
}
