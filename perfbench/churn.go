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
	"spforest/service"
)

const (
	churnN         = 10000
	churnPerSecond = 50 // steps per second; each step is three requests
)

// churnService keeps the pool small (one shard of four engines): every
// step inserts a successor engine and evicts the oldest, and the heap stays
// modest.
var churnService = service.Config{Shards: 1, MaxEnginesPerShard: 4}

// churnPlan is the churn workload's request sequence: the deltas, and the
// sources of each step's queries (all protected from removal).
type churnPlan struct {
	base   *amoebot.Structure
	deltas []amoebot.Delta
	spt    []engine.Query
	bfs    []engine.Query
}

// churnFamilies is the number of scenario.SourceSets draws the churn
// queries rotate through; many source sets average the simulated counts
// (bfs rounds follow the sources' eccentricity) over the run.
const churnFamilies = 32

// churnSourceSets draws the churn workload's source families from the seed.
func churnSourceSets(seed int64, s *amoebot.Structure) [][][]amoebot.Coord {
	fams := make([][][]amoebot.Coord, churnFamilies)
	for j := range fams {
		fams[j] = scenario.SourceSets(querySeed(seed, j), s)
	}
	return fams
}

// churnSPT and churnBFS are step i's queries: an spt from one amoebot of a
// family's spread set to that set, and a bfs from the family's pair or
// spread set. Families rotate step by step.
func churnSPT(fams [][][]amoebot.Coord, i int) engine.Query {
	spread := fams[i%len(fams)][2]
	q, _ := scenario.QueryFor(engine.AlgoSPT, spread[(i/len(fams))%len(spread):], spread, spread)
	return q
}

func churnBFS(fams [][][]amoebot.Coord, i int) engine.Query {
	q, _ := scenario.QueryFor(engine.AlgoBFS, fams[i%len(fams)][1+(i/len(fams))%2], nil, nil)
	return q
}

// newChurnPlan derives the request sequence from the seed: a delta chain
// over the blob that alternates runs of the "steady" and "translate" churn
// profiles (scenario.Workloads, each run as long as the profile's Steps),
// and the steps' queries over the blob's source families. Deltas protect
// the query sources and the leader. Empty deltas are skipped, so every
// step mutates.
//
// Each delta comes from a one-step scenario.Churn stepper over the current
// structure and is put in canonical order before it is applied:
// shapes.RandomDelta lists its additions in map order, and since a
// structure's indexing follows the order cells were added, an unsorted
// delta would make every later delta, and the simulated counts, differ
// from process to process.
//
// Translate runs alternate between one seeded direction and its opposite.
// Translating one way for long grows a tentacle behind the protected cells
// (the diameter of a 10⁴ blob goes from ~130 to ~1900 in 300 steps), so
// bfs rounds would climb through the run and differ wildly between seeds;
// going back and forth keeps the blob compact.
func newChurnPlan(blob *amoebot.Structure, fams [][][]amoebot.Coord, ldr amoebot.Coord, steps int, seed int64) (*churnPlan, error) {
	base, err := amoebot.NewStructure(blob.Coords())
	if err != nil {
		return nil, err
	}
	p := &churnPlan{base: base}
	protect := []amoebot.Coord{ldr}
	for _, sets := range fams {
		for _, set := range sets {
			protect = append(protect, set...)
		}
	}
	profiles := scenario.Workloads()
	dir := querySeed(seed, -1) % int64(amoebot.NumDirections)
	cur := base
	for run := 0; len(p.deltas) < steps; run++ {
		prof := profiles["steady"]
		if run%2 == 1 {
			prof = profiles["translate"]
		}
		for k := 0; k < prof.Steps && len(p.deltas) < steps; k++ {
			one := prof
			one.Steps = 1
			one.Seed = querySeed(seed, len(p.deltas)<<8|k)
			if run%2 == 1 {
				// Churn.Seed mod 6 selects a translate run's direction.
				d := (dir + int64(run/2%2)*3) % int64(amoebot.NumDirections)
				one.Seed = one.Seed/int64(amoebot.NumDirections)*int64(amoebot.NumDirections) + d
			}
			st, err := one.Stepper(cur, protect...)
			if err != nil {
				return nil, err
			}
			d, _, _, err := st.Next()
			if err != nil {
				return nil, err
			}
			if d.IsEmpty() {
				continue
			}
			slices.SortFunc(d.Add, compareCoords)
			slices.SortFunc(d.Remove, compareCoords)
			if cur, err = cur.Apply(d); err != nil {
				return nil, err
			}
			p.deltas = append(p.deltas, d)
		}
	}
	for i := range p.deltas {
		p.spt = append(p.spt, churnSPT(fams, i))
		p.bfs = append(p.bfs, churnBFS(fams, i))
	}
	return p, nil
}

// churnStep is what the timed phase keeps of one step for verification:
// the successor's fingerprint and compact copies of the two forests (the
// forests themselves would keep every intermediate structure alive).
type churnStep struct {
	fp       string
	spt, bfs []int32
	sptStats engine.Stats
	bfsStats engine.Stats
}

// parents snapshots a forest as one entry per amoebot: -2 for non-members,
// amoebot.None for roots, the parent index otherwise.
func parents(f *amoebot.Forest) []int32 {
	out := make([]int32, f.Structure().N())
	for i := range out {
		out[i] = -2
	}
	for _, i := range f.Members() {
		out[i] = f.Parent(i)
	}
	return out
}

// forestOf rebuilds a snapshot taken by parents over a structure with the
// same indexing.
func forestOf(s *amoebot.Structure, ps []int32) (*amoebot.Forest, error) {
	if len(ps) != s.N() {
		return nil, fmt.Errorf("forest over %d amoebots, structure has %d", len(ps), s.N())
	}
	f := amoebot.NewForest(s)
	for i, p := range ps {
		switch {
		case p == amoebot.None:
			f.SetRoot(int32(i))
		case p >= 0:
			f.SetParent(int32(i), p)
		}
	}
	return f, nil
}

func runChurn(cfg config, tr *tracer) (*outcome, error) {
	base := spforest.RandomBlob(cfg.seed, churnN)
	o := &outcome{layers: make(map[string]float64)}

	fams := churnSourceSets(cfg.seed, base)
	warm := []engine.Query{churnSPT(fams, 0), churnBFS(fams, 0)}
	var ldr amoebot.Coord
	var elect engine.Stats
	setup := func() (*service.Service, *amoebot.Structure, error) {
		runtime.GC()
		s, err := amoebot.NewStructure(base.Coords())
		if err != nil {
			return nil, nil, err
		}
		root := tr.begin("setup", -1, -1)
		start := time.Now()
		svc := service.New(&churnService)
		if ldr, elect, err = svc.Leader(s); err != nil {
			return nil, nil, err
		}
		// The first queries build the portal decompositions that the
		// chain's Apply calls then patch.
		for _, q := range warm {
			if _, err := svc.Query(s, q); err != nil {
				return nil, nil, err
			}
		}
		o.setups = append(o.setups, time.Since(start))
		tr.end(root)
		return svc, s, nil
	}
	svc, s, err := setup()
	if err != nil {
		return nil, err
	}
	plan, err := newChurnPlan(base, fams, ldr, requestCount(cfg.seconds, churnPerSecond, churnSegment), cfg.seed)
	if err != nil {
		return nil, err
	}

	steps := make([]churnStep, len(plan.deltas))
	o.attempted = 3 * len(steps)
	var mutate []time.Duration
	var timed runtimeCounters
	var phases simPhases
	ver, err := newChurnVerifier(plan.base)
	if err != nil {
		return nil, err
	}

	// The timed phase runs in segments of churnSegment steps; each segment's
	// answers are verified, and dropped, between segments, outside the timed
	// window, so the heap does not grow with the run. Set-up repeats follow.
	pool0 := svc.Stats()
	cur := s
	segs := (len(steps) + churnSegment - 1) / churnSegment
	for lo := 0; lo < len(steps); lo += churnSegment {
		hi := min(lo+churnSegment, len(steps))
		runtime.GC()
		rt0 := readRuntime()
		var seg segment
		start := time.Now()
		for i := lo; i < hi && cur != nil; i++ {
			cur = runChurnStep(o, &seg, svc, tr, plan, steps, i, cur, &mutate)
		}
		seg.wall = time.Since(start)
		timed.addDelta(rt0, readRuntime())
		o.segments = append(o.segments, seg)
		o.wall += seg.wall
		ver.check(o, plan, steps, lo, hi, &phases)
		if cur == nil {
			break
		}
		for r := extraSetups(lo/churnSegment, segs); r > 0; r-- {
			if _, _, err := setup(); err != nil {
				return nil, err
			}
		}
	}
	pool1 := svc.Stats()
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.rssMB = rss

	if tr != nil {
		if err := replayChurn(o.layers, tr, plan, steps); err != nil {
			return nil, err
		}
		o.layers["service.mutate_ms"] = ms(medianDur(mutate))
		lookups := float64(pool1.Hits - pool0.Hits + pool1.Misses - pool0.Misses)
		o.layers["service.pool.hit_frac"] = ratio(float64(pool1.Hits-pool0.Hits), lookups)
		o.layers["service.pool.evictions"] = float64(pool1.Evictions - pool0.Evictions)
		phases.preprocess += elect.Rounds
		phases.report(o.layers)
		runtimeLayers(o.layers, runtimeCounters{}, timed, o.attempted)
	}
	return o, nil
}

// churnSegment is the number of steps (three requests each) in a segment;
// each segment is verified before the next one is timed.
const churnSegment = 50

// runChurnStep runs step i (the mutation and the two queries on its result),
// recording latencies and what verification needs. It returns the
// successor, or nil after a failed request.
func runChurnStep(o *outcome, seg *segment, svc *service.Service, tr *tracer, plan *churnPlan, steps []churnStep, i int, cur *amoebot.Structure, mutate *[]time.Duration) *amoebot.Structure {
	req := 3 * i
	sp := tr.begin("service.mutate", req, -1)
	t := time.Now()
	next, err := svc.Mutate(cur, plan.deltas[i])
	lat := time.Since(t)
	tr.end(sp)
	if err != nil {
		o.fail("step %d: mutate: %v", i, err)
		return nil
	}
	seg.latencies = append(seg.latencies, lat)
	*mutate = append(*mutate, lat)
	st := &steps[i]
	st.fp = next.Fingerprint()

	for k, q := range []engine.Query{plan.spt[i], plan.bfs[i]} {
		sp := tr.begin("service.query."+q.Algo, req+1+k, -1)
		t := time.Now()
		res, err := svc.Query(next, q)
		lat := time.Since(t)
		tr.end(sp)
		if err != nil {
			o.fail("step %d (%s): %v", i, q.Algo, err)
			return nil
		}
		seg.latencies = append(seg.latencies, lat)
		if k == 0 {
			st.spt, st.sptStats = parents(res.Forest), res.Stats
		} else {
			st.bfs, st.bfsStats = parents(res.Forest), res.Stats
		}
	}
	return next
}

// churnVerifier replays the delta chain on the structures alone and checks
// every step: the successor matches the service's by fingerprint, and both
// forests pass Engine.Verify on a fresh engine over that successor.
type churnVerifier struct {
	cur *amoebot.Structure
}

func newChurnVerifier(base *amoebot.Structure) (*churnVerifier, error) {
	s, err := amoebot.NewStructure(base.Coords())
	return &churnVerifier{cur: s}, err
}

// check verifies steps lo..hi-1 and drops their forests.
func (v *churnVerifier) check(o *outcome, plan *churnPlan, steps []churnStep, lo, hi int, phases *simPhases) {
	for i := lo; i < hi; i++ {
		st := &steps[i]
		if st.fp == "" {
			return // the timed phase stopped at this step
		}
		next, err := v.cur.Apply(plan.deltas[i])
		if err != nil {
			o.fail("step %d: Structure.Apply: %v", i, err)
			return
		}
		v.cur = next
		if st.fp != next.Fingerprint() {
			o.fail("step %d: service successor differs from Structure.Apply", i)
			continue
		}
		o.verified++ // the mutation
		e, err := engine.New(next, nil)
		if err != nil {
			o.fail("step %d: successor: %v", i, err)
			continue
		}
		for _, c := range []struct {
			q     engine.Query
			f     []int32
			stats engine.Stats
		}{{plan.spt[i], st.spt, st.sptStats}, {plan.bfs[i], st.bfs, st.bfsStats}} {
			if c.f == nil {
				continue
			}
			check := c.q.Dests
			if check == nil {
				check = next.Coords()
			}
			f, err := forestOf(next, c.f)
			if err == nil {
				err = e.Verify(c.q.Sources, check, f)
			}
			if err != nil {
				o.fail("step %d (%s): %v", i, c.q.Algo, err)
				continue
			}
			o.verified++
			o.rounds += c.stats.Rounds
			o.beeps += c.stats.Beeps
			phases.add(c.stats.Phases)
		}
		st.spt, st.bfs = nil, nil
	}
}

// replayChurn measures the layers service.Mutate and service.Query wrap,
// by replaying the chain on a bare engine built like the service's pooled
// one: Structure.Apply and Engine.Apply per delta, then Engine.Run of the
// step's two queries, whose simulated counts must equal the service's.
func replayChurn(layers map[string]float64, tr *tracer, plan *churnPlan, steps []churnStep) error {
	e, rounds, err := buildReplayEngine(tr, plan)
	if err != nil {
		return err
	}
	var patched, rebuilt, writes int64
	var waves, passes int64
	for i, d := range plan.deltas {
		if steps[i].fp == "" {
			break
		}
		sp := tr.begin("amoebot.apply", -1, -1)
		_, err := e.Structure().Apply(d)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("engine.apply", -1, -1)
		e, err = e.Apply(d)
		tr.end(sp)
		if err != nil {
			return err
		}
		cs := e.CacheStats()
		patched += cs.PortalsPatched
		rebuilt += cs.PortalsRebuilt
		writes += cs.RepairWrites
		for _, c := range []struct {
			q    engine.Query
			want engine.Stats
		}{{plan.spt[i], steps[i].sptStats}, {plan.bfs[i], steps[i].bfsStats}} {
			sp := tr.begin("engine.run."+c.q.Algo, -1, -1)
			res, err := e.Run(c.q)
			tr.end(sp)
			if err != nil {
				return err
			}
			if res.Stats.Rounds != c.want.Rounds || res.Stats.Beeps != c.want.Beeps {
				return fmt.Errorf("churn replay step %d (%s): %d rounds/%d beeps, service answered %d/%d",
					i, c.q.Algo, res.Stats.Rounds, res.Stats.Beeps, c.want.Rounds, c.want.Beeps)
			}
			waves += res.Stats.WavesPacked
			passes += res.Stats.LanePasses
		}
	}
	setupLayers(layers, tr, rounds, 1)
	layers["amoebot.apply_ms"] = ms(medianDur(tr.durations("amoebot.apply")))
	layers["amoebot.apply_kb"] = median(tr.allocBytes("amoebot.apply")) / (1 << 10)
	layers["engine.apply_ms"] = ms(medianDur(tr.durations("engine.apply")))
	layers["engine.apply_mb"] = median(tr.allocBytes("engine.apply")) / (1 << 20)
	layers["engine.apply.patched_frac"] = ratio(float64(patched), float64(patched+rebuilt))
	layers["engine.apply.repair_writes"] = float64(writes)
	layers["engine.run.waves_per_pass"] = ratio(float64(waves), float64(passes))
	runLayers(layers, tr)
	return nil
}

// buildReplayEngine builds the replay's engine to the state of the
// service's pooled one after set-up: buildEngine (Warm builds the three
// portal axes and views the set-up's first spt query builds) and the first
// spt and bfs queries.
func buildReplayEngine(tr *tracer, plan *churnPlan) (*engine.Engine, int64, error) {
	e, rounds, err := buildEngine(tr, -1, plan.base.Coords(), nil)
	if err != nil {
		return nil, 0, err
	}
	for _, q := range []engine.Query{plan.spt[0], plan.bfs[0]} {
		if _, err := e.Run(q); err != nil {
			return nil, 0, fmt.Errorf("churn replay set-up: %w", err)
		}
	}
	return e, rounds, nil
}
