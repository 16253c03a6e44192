// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the code of the checkout it was built from, checks
// every answer, and prints one JSON result line:
//
//	perfbench -workload solve -seed 1 -seconds 20 -trace 0
//
// Workloads (see README.md for why each exists and which layers it loads):
//
//	solve  Engine.Run on warm engines over four large hole-free geometries
//	churn  service.Service: Mutate, then an spt and a bfs query, per step
//	serve  spfserve over HTTP from two keep-alive connections
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the per-layer metrics, measured with spans around calls into the public
// packages (amoebot, engine, service, spfserve's HTTP API). Spans and the
// host-speed probes are written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	spfserve string // spfserve binary, for the serve workload
}

// outcome is what one workload measured.
type outcome struct {
	setups    []time.Duration // one per set-up repeat
	segments  []segment       // the timed phase, in order
	wall      time.Duration   // the whole timed phase
	attempted int
	verified  int // answers that passed verification
	failures  []string
	rounds    int64 // simulated, over the timed requests
	beeps     int64
	rssMB     float64
	layers    map[string]float64 // per-layer metrics (traced runs)
}

// fail records a verification failure; the first few are kept for the
// error report.
func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// segment is a fixed run of consecutive timed requests. Throughput and
// latency percentiles are taken per segment and reported as the median over
// the run's segments, so a host slowdown that covers less than half of a
// run does not move them.
type segment struct {
	wall      time.Duration
	latencies []time.Duration // of the requests that came back with an answer
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run; perLayer those of a traced
// run. BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"sim_rounds", "count"},
	{"sim_beeps", "count"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"amoebot.validate_ms", "ms"},
	{"amoebot.apply_ms", "ms"},
	{"amoebot.apply_kb", "KB"},
	{"leader.elect_ms", "ms"},
	{"leader.elect_mb", "MB"},
	{"leader.elect_rounds", "count"},
	{"portal.warm_ms", "ms"},
	{"portal.warm_mb", "MB"},
	{"engine.run.forest_ms", "ms"},
	{"engine.run.forest_mb", "MB"},
	{"engine.run.spt_ms", "ms"},
	{"engine.run.spt_mb", "MB"},
	{"engine.run.sssp_ms", "ms"},
	{"engine.run.spsp_ms", "ms"},
	{"engine.run.bfs_ms", "ms"},
	{"engine.run.waves_per_pass", "ratio"},
	{"engine.batch_ms", "ms"},
	{"engine.batch.solo_ratio", "ratio"},
	{"engine.batch.dedup_frac", "ratio"},
	{"engine.batch.groups", "count"},
	{"engine.apply_ms", "ms"},
	{"engine.apply_mb", "MB"},
	{"engine.apply.patched_frac", "ratio"},
	{"engine.apply.repair_writes", "count"},
	{"service.mutate_ms", "ms"},
	{"service.pool.hit_frac", "ratio"},
	{"service.pool.evictions", "count"},
	{"service.build_ms", "ms"},
	{"service.batcher.queue_ms", "ms"},
	{"service.batcher.deadline_frac", "ratio"},
	{"service.batcher.solve_ms", "ms"},
	{"service.batcher.coalesce", "ratio"},
	{"spfserve.encode_ms", "ms"},
	{"spfserve.wire_ms", "ms"},
	{"spfserve.shed_frac", "ratio"},
	{"sim.preprocess_rounds", "count"},
	{"sim.forest_rounds", "count"},
	{"sim.spt_rounds", "count"},
	{"sim.bfs_rounds", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"traced.setup_s", "s"},
	{"traced.throughput_qps", "1/s"},
	{"traced.latency_p50_ms", "ms"},
	{"traced.latency_p90_ms", "ms"},
	{"traced.sim_rounds", "count"},
	{"traced.sim_beeps", "count"},
}

var workloads = map[string]func(config, *tracer) (*outcome, error){
	"solve": runSolve,
	"churn": runChurn,
	"serve": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: solve, churn or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs and request sequence")
	fs.IntVar(&cfg.seconds, "seconds", 20, "intended length of the timed phase; sets the request count")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for spans, probes and server records")
	fs.StringVar(&cfg.spfserve, "spfserve", "", "spfserve binary (serve workload)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want solve, churn or serve)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.traced = trace == 1
	return cfg, nil
}

// run executes one workload between two host probes and assembles the
// result line. Progress and the human-readable summary go to log.
func run(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	probes := []hostProbe{probe("before")}
	o, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		return nil, err
	}
	probes = append(probes, probe("after"))

	if err := writeJSON(cfg.stem()+"-probe.json", probes); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(cfg.stem() + "-spans.json"); err != nil {
			return nil, err
		}
	}

	res := report(cfg, o, tr)
	e2e := endToEndValues(o)
	fmt.Fprintf(log, "perfbench %s seed=%d trace=%v: %d requests in %.2fs, p50 %.2fms p90 %.2fms, setup %.3fs, rounds %d, beeps %d, rss %.0fMB, verified %d/%d\n",
		cfg.workload, cfg.seed, cfg.traced, o.attempted, o.wall.Seconds(), e2e["latency_p50_ms"], e2e["latency_p90_ms"],
		e2e["setup_s"], o.rounds, o.beeps, o.rssMB, o.verified, o.attempted)
	for _, p := range probes {
		fmt.Fprintf(log, "  host probe %-6s alu %.1fms mem %.1fms\n", p.When, p.ALUMS, p.MemMS)
	}
	for _, f := range o.failures {
		fmt.Fprintln(log, "  FAILED:", f)
	}
	return res, nil
}

// report assembles the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func report(cfg config, o *outcome, tr *tracer) *result {
	e2e := endToEndValues(o)
	res := &result{
		Correct:   o.verified == o.attempted && len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.attempted - o.verified,
		Metrics:   make(map[string]metricValue),
	}
	if !cfg.traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return res
	}
	// The traced run's own end-to-end figures show the tracing overhead
	// against an untraced run of the same seed; a layer the workload
	// bypasses reports 0.
	for _, name := range []string{"setup_s", "throughput_qps", "latency_p50_ms", "latency_p90_ms", "sim_rounds", "sim_beeps"} {
		o.layers["traced."+name] = e2e[name]
	}
	o.layers["trace.overhead_frac"] = ratio(tr.overhead.Seconds(), o.wall.Seconds())
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
	}
	return res
}

func endToEndValues(o *outcome) map[string]float64 {
	var rates, p50s, p90s []float64
	for _, seg := range o.segments {
		rates = append(rates, ratio(float64(len(seg.latencies)), seg.wall.Seconds()))
		p50s = append(p50s, ms(percentileDur(seg.latencies, 50)))
		p90s = append(p90s, ms(percentileDur(seg.latencies, 90)))
	}
	return map[string]float64{
		"setup_s":        medianDur(o.setups).Seconds(),
		"throughput_qps": median(rates),
		"latency_p50_ms": median(p50s),
		"latency_p90_ms": median(p90s),
		"ok_frac":        ratio(float64(o.verified), float64(o.attempted)),
		"sim_rounds":     float64(o.rounds),
		"sim_beeps":      float64(o.beeps),
		"rss_peak_mb":    o.rssMB,
	}
}

// stem is the path prefix of the run's output files.
func (c config) stem() string {
	trace := 0
	if c.traced {
		trace = 1
	}
	return filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// requestCount turns -seconds into the fixed length of a workload's request
// sequence: perSecond is the workload's rate on a 2-core host, so the timed
// phase lasts about -seconds there while the work done (and with it every
// simulated count) depends only on the seed and -seconds. The count is a
// whole number of segments of segLen requests, at least one.
func requestCount(seconds int, perSecond float64, segLen int) int {
	return max(1, int(float64(seconds)*perSecond)/segLen) * segLen
}
