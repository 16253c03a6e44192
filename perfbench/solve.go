package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/scenario"
)

// setupRepeats is how many times each workload builds its servable state;
// setup_s is the median, so one page-fault or GC burst cannot set it. The
// first set-up comes before the timed phase and gives the state it uses;
// the others are spread between its segments (extraSetups), so the
// set-up samples see the host over the whole run, as the timed segments do.
const setupRepeats = 9

// extraSetups is how many of the later set-ups run after segment seg of
// segs: setupRepeats-1 in all, spread evenly.
func extraSetups(seg, segs int) int {
	r := setupRepeats - 1
	if seg == segs-1 {
		return r - seg*r/segs // the rest, also when there are few segments
	}
	return (seg+1)*r/segs - seg*r/segs
}

// solveGeometries are the four hole-free structures of the solve workload
// (n ≈ 10⁴ each); only the blob depends on the seed.
func solveGeometries(seed int64) []*amoebot.Structure {
	return []*amoebot.Structure{
		spforest.RandomBlob(seed, 10000),
		spforest.Hexagon(58),
		spforest.Comb(5, 2000),
		spforest.Staircase(10, 40, 28),
	}
}

// solveAlgos is the per-block algorithm cycle: every block of four
// consecutive queries runs one algorithm on each geometry. Ordered by
// latency the cycle is bfs < spsp < spt, spt < sssp < forest, so the
// median request falls in the middle of the spt band rather than at the
// edge between two solvers, and p90 inside the forest band.
var solveAlgos = []string{engine.AlgoSPT, engine.AlgoSPSP, engine.AlgoSPT, engine.AlgoSSSP, engine.AlgoForest, engine.AlgoBFS}

const (
	solveDests     = 64 // destinations of spt and forest queries
	solveMinK      = 2  // forest source counts cycle solveMinK..solveMaxK
	solveMaxK      = 16
	solvePerSecond = 24
	solveSegment   = 120 // requests per segment: 5 cycles of 6 algorithms × 4 geometries
)

type solveQuery struct {
	geo   int
	q     engine.Query
	check []amoebot.Coord // destination set the answer is verified against
}

// querySeed derives the i-th query's generator seed from the run seed.
func querySeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x & (1<<62 - 1))
}

// solveQueries is the solve workload's request sequence, a pure function of
// the seed and the length: geometry and algorithm cycle so every run has
// the same mix, and the forest source count cycles 2..16 over the forest
// blocks. Sources come from
// scenario.SourceSets (spforest.RandomCoords for forest's k sources); no two
// queries share a source set.
func solveQueries(seed int64, geos []*amoebot.Structure, n int) []solveQuery {
	seen := make(map[string]bool)
	out := make([]solveQuery, 0, n)
	for i := 0; i < n; i++ {
		geo, block := i%len(geos), i/len(geos)
		s := geos[geo]
		algo := solveAlgos[block%len(solveAlgos)]
		for try := 0; ; try++ {
			qs := querySeed(seed, i) + int64(try)<<40
			sets := scenario.SourceSets(qs, s)
			dests := spforest.RandomCoords(qs+1, s, solveDests)
			var srcs []amoebot.Coord
			switch algo {
			case engine.AlgoForest:
				srcs = spforest.RandomCoords(qs, s, forestK(block, geo))
			case engine.AlgoBFS:
				srcs = sets[1+(block/len(solveAlgos))%2] // 2 or 6 sources
			default:
				srcs = sets[0]
			}
			key := sourceSetKey(geo, srcs)
			if seen[key] {
				continue
			}
			seen[key] = true
			q, check := scenario.QueryFor(algo, srcs, dests, dests)
			if q.Dests == nil {
				check = s.Coords() // sssp and bfs span the structure
			}
			out = append(out, solveQuery{geo: geo, q: q, check: check})
			break
		}
	}
	return out
}

// forestK is the source count of the forest query on geometry geo in the
// given block. It steps through solveMinK..solveMaxK by 7 (coprime to the
// 15 values) from one forest query to the next, so every segment holds
// forest queries spread over the whole range.
func forestK(block, geo int) int {
	n := 0
	for b := 0; b < block; b++ {
		if solveAlgos[b%len(solveAlgos)] == engine.AlgoForest {
			n++
		}
	}
	return solveMinK + (7*(4*n+geo))%(solveMaxK-solveMinK+1)
}

func sourceSetKey(geo int, srcs []amoebot.Coord) string {
	sorted := slices.Clone(srcs)
	slices.SortFunc(sorted, compareCoords)
	return fmt.Sprint(geo, sorted)
}

func compareCoords(a, b amoebot.Coord) int {
	if a.X != b.X {
		return a.X - b.X
	}
	return a.Z - b.Z
}

// buildEngine makes one structure servable the way solve's set-up defines
// it: engine.New on a structure that has not been validated yet, the leader
// election, and Warm, with the amoebot.validate, leader.elect and
// portal.warm spans. It returns the election's simulated rounds.
func buildEngine(tr *tracer, parent int, coords []amoebot.Coord, cfg *engine.Config) (*engine.Engine, int64, error) {
	s, err := amoebot.NewStructure(coords)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("amoebot.validate", -1, parent)
	e, err := engine.New(s, cfg)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("leader.elect", -1, parent)
	_, st := e.Leader()
	tr.end(sp)
	sp = tr.begin("portal.warm", -1, parent)
	e.Warm()
	tr.end(sp)
	return e, st.Rounds, nil
}

func runSolve(cfg config, tr *tracer) (*outcome, error) {
	geos := solveGeometries(cfg.seed)
	o := &outcome{layers: make(map[string]float64)}

	var electRounds int64
	setup := func() ([]*engine.Engine, error) {
		runtime.GC()
		root := tr.begin("setup", -1, -1)
		start := time.Now()
		engines := make([]*engine.Engine, len(geos))
		electRounds = 0
		for i, s := range geos {
			e, rounds, err := buildEngine(tr, root, s.Coords(), nil)
			if err != nil {
				return nil, err
			}
			engines[i] = e
			electRounds += rounds
		}
		o.setups = append(o.setups, time.Since(start))
		tr.end(root)
		return engines, nil
	}
	engines, err := setup()
	if err != nil {
		return nil, err
	}
	// Answers are verified on engines of their own (the forests copied
	// onto their structures), so verification's memoized distances never
	// reach the engines under test.
	checkers := make([]*engine.Engine, len(geos))
	for i, s := range geos {
		if checkers[i], err = engine.New(s, nil); err != nil {
			return nil, err
		}
	}

	queries := solveQueries(cfg.seed, geos, requestCount(cfg.seconds, solvePerSecond, solveSegment))
	o.attempted = len(queries)
	segs := len(queries) / solveSegment
	results := make([]*engine.Result, solveSegment)
	errs := make([]error, solveSegment)
	latencies := make([]time.Duration, solveSegment)
	var timed runtimeCounters
	var phases simPhases
	var waves, passes int64

	// Each segment is timed, then verified and dropped outside the timed
	// window, so the heap does not grow with the run; set-up repeats
	// follow.
	for k := 0; k < segs; k++ {
		part := queries[k*solveSegment : (k+1)*solveSegment]
		runtime.GC()
		rt0 := readRuntime()
		start := time.Now()
		for j, sq := range part {
			sp := tr.begin("engine.run."+sq.q.Algo, k*solveSegment+j, -1)
			t := time.Now()
			results[j], errs[j] = engines[sq.geo].Run(sq.q)
			latencies[j] = time.Since(t)
			tr.end(sp)
		}
		seg := segment{wall: time.Since(start)}
		timed.addDelta(rt0, readRuntime())
		o.wall += seg.wall

		for j, sq := range part {
			i := k*solveSegment + j
			if errs[j] != nil {
				o.fail("query %d (%s): %v", i, sq.q.Algo, errs[j])
				continue
			}
			seg.latencies = append(seg.latencies, latencies[j])
			res := results[j]
			results[j] = nil
			check := checkers[sq.geo]
			f, err := forestOf(check.Structure(), parents(res.Forest))
			if err == nil {
				err = check.Verify(sq.q.Sources, sq.check, f)
			}
			if err != nil {
				o.fail("query %d (%s): %v", i, sq.q.Algo, err)
				continue
			}
			o.verified++
			o.rounds += res.Stats.Rounds
			o.beeps += res.Stats.Beeps
			phases.add(res.Stats.Phases)
			waves += res.Stats.WavesPacked
			passes += res.Stats.LanePasses
		}
		o.segments = append(o.segments, seg)
		for r := extraSetups(k, segs); r > 0; r-- {
			if _, err := setup(); err != nil {
				return nil, err
			}
		}
	}
	if o.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}

	if tr != nil {
		phases.preprocess += electRounds
		setupLayers(o.layers, tr, electRounds, len(geos))
		runLayers(o.layers, tr)
		o.layers["engine.run.waves_per_pass"] = ratio(float64(waves), float64(passes))
		phases.report(o.layers)
		runtimeLayers(o.layers, runtimeCounters{}, timed, len(queries))
	}
	return o, nil
}

// simPhases sums the simulated rounds the engine attributes to phases.
type simPhases struct{ preprocess, forest, spt, bfs int64 }

func (p *simPhases) add(m map[string]int64) {
	p.preprocess += m["preprocess"]
	p.forest += m["forest"]
	p.spt += m["spt"]
	p.bfs += m["bfs"]
}

func (p *simPhases) report(layers map[string]float64) {
	layers["sim.preprocess_rounds"] = float64(p.preprocess)
	layers["sim.forest_rounds"] = float64(p.forest)
	layers["sim.spt_rounds"] = float64(p.spt)
	layers["sim.bfs_rounds"] = float64(p.bfs)
}

// setupLayers reports the set-up spans of buildEngine: medians over every
// engine built in every repeat.
func setupLayers(layers map[string]float64, tr *tracer, electRounds int64, engines int) {
	layers["amoebot.validate_ms"] = ms(medianDur(tr.durations("amoebot.validate")))
	layers["leader.elect_ms"] = ms(medianDur(tr.durations("leader.elect")))
	layers["leader.elect_mb"] = median(tr.allocBytes("leader.elect")) / (1 << 20)
	layers["leader.elect_rounds"] = ratio(float64(electRounds), float64(engines))
	layers["portal.warm_ms"] = ms(medianDur(tr.durations("portal.warm")))
	layers["portal.warm_mb"] = median(tr.allocBytes("portal.warm")) / (1 << 20)
}

// runLayers reports the engine.run.<algo> spans: median time per solver,
// and median allocation for the two solvers that allocate most.
func runLayers(layers map[string]float64, tr *tracer) {
	for _, algo := range solveAlgos {
		layers["engine.run."+algo+"_ms"] = ms(medianDur(tr.durations("engine.run." + algo)))
	}
	for _, algo := range []string{engine.AlgoForest, engine.AlgoSPT} {
		layers["engine.run."+algo+"_mb"] = median(tr.allocBytes("engine.run."+algo)) / (1 << 20)
	}
}

// runtimeLayers reports the process-wide GC share of CPU and the heap
// allocated per timed request.
func runtimeLayers(layers map[string]float64, before, after runtimeCounters, requests int) {
	layers["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	layers["runtime.alloc_mb_per_req"] = ratio(float64(after.allocBytes-before.allocBytes)/(1<<20), float64(requests))
}
