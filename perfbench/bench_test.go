package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spforest"
	"spforest/engine"
	"spforest/internal/scenario"
)

// spfserveBin is built once for the serve smoke runs.
var spfserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	spfserveBin = filepath.Join(dir, "spfserve")
	build := exec.Command("go", "build", "-o", spfserveBin, "spforest/cmd/spfserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		decl []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.decl {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", c.what, got, c.defs)
		}
	}
}

// TestSequencesArePure checks that every workload's request sequence is a
// function of the seed alone, and that another seed gives another one.
func TestSequencesArePure(t *testing.T) {
	geos := solveGeometries(3)
	a, b := solveQueries(3, geos, 120), solveQueries(3, solveGeometries(3), 120)
	if !reflect.DeepEqual(a, b) {
		t.Error("solve: same seed, different queries")
	}
	if reflect.DeepEqual(a, solveQueries(4, geos, 120)) {
		t.Error("solve: seeds 3 and 4 give the same queries")
	}
	seen := make(map[string]bool)
	for _, sq := range a {
		key := sourceSetKey(sq.geo, sq.q.Sources)
		if seen[key] {
			t.Errorf("solve: source set %s repeats", key)
		}
		seen[key] = true
	}

	blob := spforest.RandomBlob(3, 2000)
	fams := churnSourceSets(3, blob)
	ldr := blob.Coord(0)
	p1, err := newChurnPlan(blob, fams, ldr, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := newChurnPlan(spforest.RandomBlob(3, 2000), fams, ldr, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.deltas, p2.deltas) || !reflect.DeepEqual(p1.spt, p2.spt) || !reflect.DeepEqual(p1.bfs, p2.bfs) {
		t.Error("churn: same seed, different plan")
	}
	p3, err := newChurnPlan(blob, fams, ldr, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.deltas, p3.deltas) {
		t.Error("churn: seeds 3 and 4 give the same deltas")
	}

	r1, err := serveRequests(3, serveTargets(3), 200)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := serveRequests(3, serveTargets(3), 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("serve: same seed, different requests")
	}
	r3, err := serveRequests(4, serveTargets(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1, r3) {
		t.Error("serve: seeds 3 and 4 give the same requests")
	}
}

// TestSmoke runs each workload briefly on two seeds, untraced and traced:
// every metric is present with its unit, every answer verifies, and the
// traced run reproduces the simulated counts exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	for _, w := range []string{"solve", "churn", "serve"} {
		for _, seed := range []int64{1, 2} {
			cfg := config{workload: w, seed: seed, seconds: 1, outDir: t.TempDir(), spfserve: spfserveBin}
			plain := smokeRun(t, cfg, endToEnd)
			if got := plain.Metrics["ok_frac"].Value; got != 1 {
				t.Errorf("%s seed %d: ok_frac %v", w, seed, got)
			}
			cfg.traced = true
			traced := smokeRun(t, cfg, perLayer)
			for _, name := range []string{"sim_rounds", "sim_beeps"} {
				if a, b := plain.Metrics[name].Value, traced.Metrics["traced."+name].Value; a != b || a == 0 {
					t.Errorf("%s seed %d: %s %v untraced, %v traced", w, seed, name, a, b)
				}
			}
		}
	}
}

func smokeRun(t *testing.T, cfg config, want []metricDef) *result {
	t.Helper()
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", cfg.workload, cfg.seed, cfg.traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed", cfg.workload, cfg.seed, cfg.traced, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace %v: %d metrics, want %d", cfg.workload, cfg.traced, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s trace %v: metric %s = %+v, want unit %s", cfg.workload, cfg.traced, m.name, got, m.unit)
		}
	}
	return res
}

// TestWrongAnswerFails checks that a forest that is not a shortest-path
// forest fails verification, and that a run with an unverified answer
// reports ok_frac < 1 and is not correct.
func TestWrongAnswerFails(t *testing.T) {
	sc, _ := scenario.ByName("hexagon/r4")
	e, _, err := buildEngine(nil, -1, sc.S.Coords(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := sc.SourceSets()
	q, _ := scenario.QueryFor(engine.AlgoSPT, sets[0], sets[2], sets[2])
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := res.Forest.MarshalText()
	good := wireResult{Forest: string(text)}
	if err := checkReply(e, []engine.Query{q}, []wireResult{good}); err != nil {
		t.Fatalf("correct forest rejected: %v", err)
	}
	// Re-root the forest at a destination: still a forest, no longer an
	// SPT from the query's source.
	ps := parents(res.Forest)
	for _, c := range q.Dests {
		if i, _ := e.Structure().Index(c); c != q.Sources[0] && ps[i] >= 0 {
			ps[i] = -1
			break
		}
	}
	f, err := forestOf(e.Structure(), ps)
	if err != nil {
		t.Fatal(err)
	}
	text, _ = f.MarshalText()
	if err := checkReply(e, []engine.Query{q}, []wireResult{{Forest: string(text)}}); err == nil {
		t.Error("wrong forest verified")
	}

	o := &outcome{attempted: 2, verified: 1, wall: time.Second, segments: []segment{{wall: time.Second, latencies: []time.Duration{time.Millisecond, time.Millisecond}}}}
	o.fail("request 1: wrong forest")
	r := report(config{workload: "solve"}, o, nil)
	if r.Correct || r.Failed != 1 || r.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("run with a wrong answer reported correct %v, failed %d, ok_frac %v", r.Correct, r.Failed, r.Metrics["ok_frac"].Value)
	}
}
