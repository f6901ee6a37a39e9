package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness when runProc
// re-executes it as the rssWrap launcher.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == rssWrapFlag {
		os.Exit(rssWrap(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// runSmoke runs the harness at smoke size and decodes the driver line, the
// last line of its standard output.
func runSmoke(t *testing.T, args ...string) driverLine {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(context.Background(), append([]string{"-smoke"}, args...), &stdout); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// manifest is the part of BENCHMARK.json the tests hold the harness to.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func checkMetrics(t *testing.T, what string, got map[string]driverMetric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d: %v", what, len(got), len(want), names)
	}
	for _, w := range want {
		if m, ok := got[w.Name]; !ok {
			t.Errorf("%s: metric %s declared in BENCHMARK.json is not printed", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s printed in %q, declared in %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload end to end and traced at smoke
// size: every operation must succeed, and the printed metrics must be
// exactly the ones BENCHMARK.json declares, units included.
func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads(false)) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(m.Workloads), len(workloads(false)))
	}
	for _, w := range m.Workloads {
		e2e := runSmoke(t, "-workload", w.Name, "-seed", "7", "-trace", "0")
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, e2e.Correct, e2e.Attempted, e2e.Failed)
		}
		checkMetrics(t, w.Name+" end-to-end", e2e.Metrics, m.EndToEnd)
		for name, v := range e2e.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, name, v.Value)
			}
		}
		traced := runSmoke(t, "-workload", w.Name, "-seed", "7", "-trace", "1")
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w.Name, traced.Correct, traced.Failed)
		}
		checkMetrics(t, w.Name+" traced", traced.Metrics, m.PerLayer)
		if wire := traced.Metrics["bsp.bytes_total"].Value; (wire > 0) != (w.Name == "grid-tcp") {
			t.Errorf("%s: bsp.bytes_total = %v; only grid-tcp communicates", w.Name, wire)
		}
		if _, err := os.Stat("out/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

// TestCountsRepeat runs the traced grid-tcp workload twice with one seed
// and once with another: the counts the program makes must repeat exactly
// under the same seed, and the input files must follow the seed.
func TestCountsRepeat(t *testing.T) {
	exact := []string{"core.nnz", "core.active_rows", "bsp.bytes_total", "bsp.supersteps", "indexfile.bytes",
		"index.popcounts_per_query", "index.segments_after_storm"}
	digest := func() string {
		data, err := os.ReadFile("out/result-grid-tcp.json")
		if err != nil {
			t.Fatal(err)
		}
		var r struct{ Sizes map[string]any }
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		return r.Sizes["inputs_sha256"].(string)
	}
	first := runSmoke(t, "-workload", "grid-tcp", "-seed", "11", "-trace", "1")
	firstDigest := digest()
	second := runSmoke(t, "-workload", "grid-tcp", "-seed", "11", "-trace", "1")
	if d := digest(); d != firstDigest {
		t.Errorf("same seed, different input files: %s vs %s", firstDigest, d)
	}
	for _, name := range exact {
		if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b || a == 0 {
			t.Errorf("%s does not repeat exactly: %v then %v", name, a, b)
		}
	}
	runSmoke(t, "-workload", "grid-tcp", "-seed", "12", "-trace", "1")
	if d := digest(); d == firstDigest {
		t.Errorf("different seeds gave the same input files (%s)", d)
	}
}

// TestCorruptedOracleFails is the harness's self-test: with one expected
// value falsified per stage, a run of the unchanged program must report
// failures and must not call itself correct.
func TestCorruptedOracleFails(t *testing.T) {
	for _, name := range []string{"sparse-files", "grid-tcp"} {
		line := runSmoke(t, "-workload", name, "-seed", "7", "-corrupt-oracle")
		if line.Correct || line.Failed < 2 {
			t.Errorf("%s with a corrupted oracle: correct=%v failed=%d, want incorrect with the solves and a query failing",
				name, line.Correct, line.Failed)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sh := workloads(true)[0].Batch
	a, err := genDataset(sh, "s", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genDataset(sh, "s", 3)
	c, _ := genDataset(sh, "s", 4)
	if !reflect.DeepEqual(a.samples, b.samples) || !reflect.DeepEqual(a.planted, b.planted) {
		t.Error("same seed generated different collections")
	}
	if reflect.DeepEqual(a.samples, c.samples) {
		t.Error("different seeds generated the same collection")
	}
	for k, p := range a.planted {
		if d := p.Jaccard - plantedTargets[k]; d > 0.02 || d < -0.02 {
			t.Errorf("planted pair %d has similarity %.4f, target %.2f", k, p.Jaccard, plantedTargets[k])
		}
		// The layout is the shape's, not the seed's.
		if p.I != c.planted[k].I || p.J != c.planted[k].J {
			t.Errorf("planted pair %d moved with the seed", k)
		}
	}
}

func TestScalingRatioRefusedWhenOversubscribed(t *testing.T) {
	for _, tc := range []struct {
		ranks, workers, cpus int
		allowed              bool
	}{{4, 1, 2, false}, {4, 1, 4, true}, {1, 8, 4, false}, {1, 1, 1, true}} {
		ok, why := scalingRatioAllowed(tc.ranks, tc.workers, tc.cpus)
		if ok != tc.allowed || (why == "") != ok {
			t.Errorf("scalingRatioAllowed(%d, %d, %d) = %v, %q", tc.ranks, tc.workers, tc.cpus, ok, why)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 1, Run: "r", Name: "root", StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, Run: "r", Name: "child", StartS: 1, EndS: 4},
		{ID: 3, Parent: 1, Run: "r", Name: "child", StartS: 3, EndS: 6},
	}}
	for _, row := range rec.layerTable() {
		if row.Name == "root" && row.SelfS != 5 {
			t.Errorf("root self time = %v, want 5 (10 minus the 5 its children cover)", row.SelfS)
		}
		if row.Name == "child" && (row.Count != 2 || row.TotalS != 6) {
			t.Errorf("child row = %+v, want 2 spans totalling 6", row)
		}
	}
}
