package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/scenario"
	"spforest/service"
)

const (
	serveConns      = 2  // closed-loop client connections (= nproc)
	serveBatchEvery = 8  // every 8th request is a /v1/batch
	serveBatchSize  = 16 // queries per /v1/batch
	servePerSecond  = 450
	serveSegment    = 600 // requests per segment
	// serveSoloReplays bounds how many batches the traced run replays
	// locally to compare Engine.Batch with a loop of Engine.Run.
	serveSoloReplays = 100
)

// serveTargets are the structures the serve mix spreads over: the 28
// registry scenarios, plus two inline hole-free structures that the client
// sends once as text and then names by fingerprint.
func serveTargets(seed int64) []scenario.Scenario {
	return append(scenario.All(),
		scenario.Scenario{Name: "inline/blob-n2500", Family: "inline", S: spforest.RandomBlob(seed, 2500)},
		scenario.Scenario{Name: "inline/hexagon-r28", Family: "inline", S: spforest.Hexagon(28)},
	)
}

func isInline(sc scenario.Scenario) bool { return sc.Family == "inline" }

// structureRef names a target on the wire.
func structureRef(sc scenario.Scenario) map[string]any {
	if isInline(sc) {
		return map[string]any{"fp": sc.S.Fingerprint()}
	}
	return map[string]any{"scenario": sc.Name}
}

type wireQuery struct {
	Algo    string   `json:"algo,omitempty"`
	Sources [][2]int `json:"sources"`
	Dests   [][2]int `json:"dests,omitempty"`
	Tag     string   `json:"tag,omitempty"`
}

func toWire(q engine.Query) wireQuery {
	return wireQuery{Algo: q.Algo, Sources: pairs(q.Sources), Dests: pairs(q.Dests), Tag: q.Tag}
}

func pairs(cs []amoebot.Coord) [][2]int {
	if len(cs) == 0 {
		return nil
	}
	out := make([][2]int, len(cs))
	for i, c := range cs {
		out[i] = [2]int{c.X, c.Z}
	}
	return out
}

// serveRequest is one HTTP request of the sequence.
type serveRequest struct {
	batch   bool
	target  int
	queries []engine.Query
	body    []byte
}

func (r serveRequest) path() string {
	if r.batch {
		return "/v1/batch"
	}
	return "/v1/query"
}

// serveRequests is the serve workload's request sequence, a pure function
// of the seed: a scenario.Mix over every target gives the /v1/query
// singles; every serveBatchEvery-th step on a registry scenario instead
// sends a /v1/batch of serveBatchSize queries drawn from a per-target
// scenario.Mix, which cycles solvers over the target's three source sets,
// so a batch repeats sources and the server's dedupe, SPTManyEnv grouping
// and MS-BFS lanes fire. Batches skip the inline structures: a few dozen
// 16-query batches on them would carry much of the run's simulated work
// and memory, and their seed-to-seed count would set both.
func serveRequests(seed int64, targets []scenario.Scenario, n int) ([]serveRequest, error) {
	mix, err := scenario.NewMix(seed, targets, 0)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(targets))
	for i, sc := range targets {
		index[sc.Name] = i
	}
	batchMix := make(map[int]*scenario.Mix)
	out := make([]serveRequest, 0, n)
	for i := 0; i < n; i++ {
		step := mix.Next()
		t := index[step.Scenario]
		req := serveRequest{target: t}
		body := structureRef(targets[t])
		if i%serveBatchEvery == serveBatchEvery-1 && !isInline(targets[t]) {
			bm := batchMix[t]
			if bm == nil {
				if bm, err = scenario.NewMix(querySeed(seed, t), targets[t:t+1], 0); err != nil {
					return nil, err
				}
				batchMix[t] = bm
			}
			req.batch = true
			wire := make([]wireQuery, serveBatchSize)
			for j := range wire {
				q := bm.Next().Query
				req.queries = append(req.queries, q)
				wire[j] = toWire(q)
			}
			body["queries"] = wire
		} else {
			req.queries = []engine.Query{step.Query}
			wq := toWire(step.Query)
			body["algo"], body["sources"], body["dests"], body["tag"] = wq.Algo, wq.Sources, wq.Dests, wq.Tag
		}
		if req.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// server is one spfserve child process.
type server struct {
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has exited
	base    string
	records string
	client  *http.Client
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns,
			MaxConnsPerHost:     serveConns,
			DisableCompression:  true,
		},
	}
}

// startServer launches spfserve on a free loopback port and waits until it
// answers /v1/stats. The run's id-th server writes its log and request
// records to files of its own.
func startServer(cfg config, id int) (*server, error) {
	if cfg.spfserve == "" {
		return nil, errors.New("serve workload needs -spfserve")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	stem := fmt.Sprintf("%s-server%d", cfg.stem(), id)
	logf, err := os.Create(stem + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	sv := &server{done: make(chan struct{}), base: "http://" + addr, records: stem + "-records.jsonl", client: newClient()}
	sv.cmd = exec.Command(cfg.spfserve, "-addr", addr, "-metrics-out", sv.records)
	sv.cmd.Stdout, sv.cmd.Stderr = logf, logf
	sv.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	if err := sv.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sv.cmd.Wait() // the exit status is not needed: stop only waits for the exit
		close(sv.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := sv.client.Get(sv.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		select {
		case <-sv.done:
			return nil, fmt.Errorf("spfserve exited before serving (see %s.log)", stem)
		default:
		}
		if time.Now().After(deadline) {
			sv.stop()
			return nil, fmt.Errorf("spfserve did not come up on %s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if it has not exited after
// ten seconds, and returns once the process is gone.
func (sv *server) stop() {
	sv.client.CloseIdleConnections()
	sv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sv.done:
	case <-time.After(10 * time.Second):
		sv.cmd.Process.Kill()
		<-sv.done
	}
}

// reply is what a client connection kept of one request.
type reply struct {
	start  time.Time
	lat    time.Duration
	status int
	body   []byte
	err    error
}

func (sv *server) post(path string, body []byte) reply {
	r := reply{start: time.Now()}
	resp, err := sv.client.Post(sv.base+path, "application/json", bytes.NewReader(body))
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.lat = time.Since(r.start)
	r.err = err
	return r
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Pool      service.Stats        `json:"pool"`
	Admission service.BatcherStats `json:"admission"`
}

func (sv *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := sv.client.Get(sv.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// wireResult and batchResponse are the answers spfserve sends.
type wireResult struct {
	Err    string                 `json:"err"`
	Forest string                 `json:"forest"`
	Rounds int64                  `json:"rounds"`
	Beeps  int64                  `json:"beeps"`
	Phases map[string]int64       `json:"phases"`
	Timing *service.RequestRecord `json:"timing"`
}

type batchResponse struct {
	Results []wireResult           `json:"results"`
	Deduped int                    `json:"deduped"`
	Groups  int                    `json:"groups"`
	Timing  *service.RequestRecord `json:"timing"`
}

// warmServer registers the inline targets and builds an engine for every
// target in the server's pool: a forest query on each hole-free target
// (leader election and portal decompositions), a bfs on each holed one. It
// returns the preprocess rounds the server charged.
func warmServer(sv *server, targets []scenario.Scenario) (int64, error) {
	var preprocess int64
	for _, sc := range targets {
		ref := structureRef(sc)
		if isInline(sc) {
			text, err := sc.S.MarshalText()
			if err != nil {
				return 0, err
			}
			ref = map[string]any{"structure": string(text)}
		}
		sets := sc.SourceSets()
		q, _ := scenario.QueryFor(engine.AlgoForest, sets[1], sets[2], sets[2])
		if sc.Holed() {
			q, _ = scenario.QueryFor(engine.AlgoBFS, sets[0], nil, nil)
		}
		wq := toWire(q)
		ref["algo"], ref["sources"], ref["dests"] = wq.Algo, wq.Sources, wq.Dests
		body, err := json.Marshal(ref)
		if err != nil {
			return 0, err
		}
		r := sv.post("/v1/query", body)
		if r.err != nil || r.status != http.StatusOK {
			return 0, fmt.Errorf("warming %s: status %d: %v %s", sc.Name, r.status, r.err, r.body)
		}
		var res wireResult
		if err := json.Unmarshal(r.body, &res); err != nil {
			return 0, fmt.Errorf("warming %s: %w", sc.Name, err)
		}
		if isInline(sc) && (res.Timing == nil || res.Timing.Fingerprint != sc.S.Fingerprint()) {
			return 0, fmt.Errorf("warming %s: server did not register it under %q", sc.Name, sc.S.Fingerprint())
		}
		preprocess += res.Phases["preprocess"]
	}
	return preprocess, nil
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	targets := serveTargets(cfg.seed)
	reqs, err := serveRequests(cfg.seed, targets, requestCount(cfg.seconds, servePerSecond, serveSegment))
	if err != nil {
		return nil, err
	}
	o := &outcome{layers: make(map[string]float64)}

	var preprocess int64
	setup := func() (*server, error) {
		runtime.GC()
		start := time.Now()
		sv, err := startServer(cfg, len(o.setups))
		if err != nil {
			return nil, err
		}
		if preprocess, err = warmServer(sv, targets); err != nil {
			sv.stop()
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
		return sv, nil
	}
	sv, err := setup()
	if err != nil {
		return nil, err
	}
	defer sv.stop()

	// The timed phase drives one segment at a time; each later set-up
	// starts, warms and stops a second server between segments.
	before, err := sv.stats()
	if err != nil {
		return nil, err
	}
	replies := make([]reply, 0, len(reqs))
	var timed runtimeCounters
	segs := len(reqs) / serveSegment
	for k := 0; k < segs; k++ {
		runtime.GC()
		rt0 := readRuntime()
		part, wall := driveServer(sv, reqs[k*serveSegment:(k+1)*serveSegment])
		timed.addDelta(rt0, readRuntime())
		o.wall += wall
		seg := segment{wall: wall}
		for _, r := range part {
			if r.err == nil && r.status == http.StatusOK {
				seg.latencies = append(seg.latencies, r.lat)
			}
		}
		o.segments = append(o.segments, seg)
		replies = append(replies, part...)
		for r := extraSetups(k, segs); r > 0; r-- {
			extra, err := setup()
			if err != nil {
				return nil, err
			}
			extra.stop()
			os.Remove(extra.records)
		}
	}
	after, err := sv.stats()
	if err != nil {
		return nil, err
	}
	if o.rssMB, err = peakRSSMB(strconv.Itoa(sv.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	sv.stop() // flushes the request records
	o.attempted = len(reqs)

	// Verification, outside the timed window: every forest is decoded onto
	// a local engine's structure and checked with Engine.Verify.
	engines, electRounds, err := localEngines(tr, targets)
	if err != nil {
		return nil, err
	}
	records, err := readRecords(sv.records)
	if err != nil {
		return nil, err
	}
	var phases simPhases
	var shed, deduped, groups, batches, batchQueries int
	var matched []matchedRecord
	for i, r := range replies {
		req := reqs[i]
		switch {
		case r.err != nil:
			o.fail("request %d: %v", i, r.err)
			continue
		case r.status == http.StatusTooManyRequests:
			shed++
			o.fail("request %d: shed", i)
			continue
		case r.status != http.StatusOK:
			o.fail("request %d: status %d: %s", i, r.status, r.body)
			continue
		}
		var results []wireResult
		var timing *service.RequestRecord
		if req.batch {
			var br batchResponse
			if err := json.Unmarshal(r.body, &br); err != nil {
				o.fail("request %d: %v", i, err)
				continue
			}
			results, timing = br.Results, br.Timing
			deduped, groups, batches, batchQueries = deduped+br.Deduped, groups+br.Groups, batches+1, batchQueries+len(req.queries)
		} else {
			var wr wireResult
			if err := json.Unmarshal(r.body, &wr); err != nil {
				o.fail("request %d: %v", i, err)
				continue
			}
			results, timing = []wireResult{wr}, wr.Timing
		}
		if err := checkReply(engines[req.target], req.queries, results); err != nil {
			o.fail("request %d (%s): %v", i, targets[req.target].Name, err)
			continue
		}
		o.verified++
		for _, wr := range results {
			o.rounds += wr.Rounds
			o.beeps += wr.Beeps
			phases.add(wr.Phases)
		}
		if timing != nil {
			if rec, ok := records[recordKey(*timing)]; ok {
				matched = append(matched, matchedRecord{i, rec})
			}
		}
	}

	if tr != nil {
		serveLayers(o.layers, tr, reqs, replies, matched, before, after)
		o.layers["spfserve.shed_frac"] = ratio(float64(shed), float64(o.attempted))
		o.layers["engine.batch.dedup_frac"] = ratio(float64(deduped), float64(batchQueries))
		o.layers["engine.batch.groups"] = ratio(float64(groups), float64(batches))
		setupLayers(o.layers, tr, electRounds, len(targets))
		if err := soloReplay(o.layers, tr, engines, reqs); err != nil {
			return nil, err
		}
		runLayers(o.layers, tr)
		phases.preprocess += preprocess
		phases.report(o.layers)
		runtimeLayers(o.layers, runtimeCounters{}, timed, o.attempted)
	}
	return o, nil
}

// driveServer replays a run of the request sequence closed-loop from
// serveConns connections, each sending its next request once the previous
// one is answered, and returns the replies and the wall time.
func driveServer(sv *server, reqs []serveRequest) ([]reply, time.Duration) {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				replies[i] = sv.post(reqs[i].path(), reqs[i].body)
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// localEngines builds one engine per target for verification, the way
// set-up builds servable engines (traced: the amoebot, leader and portal
// set-up spans). It returns the elections' simulated rounds.
func localEngines(tr *tracer, targets []scenario.Scenario) ([]*engine.Engine, int64, error) {
	var rounds int64
	engines := make([]*engine.Engine, len(targets))
	for i, sc := range targets {
		e, r, err := buildEngine(tr, -1, sc.S.Coords(), &engine.Config{AllowHoles: true})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sc.Name, err)
		}
		engines[i] = e
		rounds += r
	}
	return engines, rounds, nil
}

// checkReply verifies every answer of one request against the local engine.
func checkReply(e *engine.Engine, queries []engine.Query, results []wireResult) error {
	if len(results) != len(queries) {
		return fmt.Errorf("%d answers for %d queries", len(results), len(queries))
	}
	for j, q := range queries {
		wr := results[j]
		if wr.Err != "" {
			return fmt.Errorf("query %d (%s): %s", j, q.Algo, wr.Err)
		}
		f, err := amoebot.ParseForest(e.Structure(), []byte(wr.Forest))
		if err != nil {
			return fmt.Errorf("query %d (%s): %w", j, q.Algo, err)
		}
		check := q.Dests
		if check == nil {
			check = e.Structure().Coords() // sssp and bfs span the structure
		}
		if err := e.Verify(q.Sources, check, f); err != nil {
			return fmt.Errorf("query %d (%s): %w", j, q.Algo, err)
		}
	}
	return nil
}

// recordKey matches a response's echoed timing to the server's streamed
// RequestRecord, which alone carries the encode and total times: queue,
// build and solve nanoseconds together identify one request.
func recordKey(rec service.RequestRecord) string {
	return fmt.Sprintf("%s|%d|%d|%d", rec.Endpoint, rec.QueueNS, rec.BuildNS, rec.SolveNS)
}

func readRecords(path string) (map[string]service.RequestRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]service.RequestRecord)
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var rec service.RequestRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[recordKey(rec)] = rec
	}
}

type matchedRecord struct {
	req int
	rec service.RequestRecord
}

// serveLayers turns the server's per-request records into spans and
// reports the batcher, pool, encoding and wire metrics. Each client request
// is a span; the server's request and its phases become its children,
// placed by duration (the server reports no timestamps): the wire time is
// split evenly around the server span, queue, build and solve follow each
// other from its start, and encoding ends it.
func serveLayers(layers map[string]float64, tr *tracer, reqs []serveRequest, replies []reply, matched []matchedRecord, before, after serverStats) {
	var queue, solve, batchSolve, encode, wire []time.Duration
	var build time.Duration
	for _, m := range matched {
		req, r, rec := reqs[m.req], replies[m.req], m.rec
		client := tr.add("http"+req.path(), m.req, -1, r.start, r.lat, false)
		total := time.Duration(rec.TotalNS)
		srvStart := r.start.Add((r.lat - total) / 2)
		srv := tr.add("spfserve.request", m.req, client, srvStart, total, true)
		solveName := "service.batcher.solve"
		if req.batch {
			solveName = "engine.batch"
			batchSolve = append(batchSolve, time.Duration(rec.SolveNS))
		} else {
			queue = append(queue, time.Duration(rec.QueueNS))
			solve = append(solve, time.Duration(rec.SolveNS))
		}
		t := srvStart
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"service.batcher.queue", rec.QueueNS}, {"service.build", rec.BuildNS}, {solveName, rec.SolveNS}} {
			if ph.ns > 0 {
				tr.add(ph.name, m.req, srv, t, time.Duration(ph.ns), true)
				t = t.Add(time.Duration(ph.ns))
			}
		}
		enc := time.Duration(rec.EncodeNS)
		tr.add("spfserve.encode", m.req, srv, srvStart.Add(total-enc), enc, true)
		encode = append(encode, enc)
		wire = append(wire, r.lat-total)
		build += time.Duration(rec.BuildNS)
	}
	layers["service.batcher.queue_ms"] = ms(medianDur(queue))
	layers["service.batcher.solve_ms"] = ms(medianDur(solve))
	layers["engine.batch_ms"] = ms(medianDur(batchSolve))
	layers["spfserve.encode_ms"] = ms(medianDur(encode))
	layers["spfserve.wire_ms"] = ms(medianDur(wire))
	layers["service.build_ms"] = ratio(ms(build), float64(len(matched)))

	a, b := after.Admission, before.Admission
	flushes := float64(a.Flushes - b.Flushes)
	layers["service.batcher.deadline_frac"] = ratio(float64(a.FlushedByDeadline-b.FlushedByDeadline), flushes)
	layers["service.batcher.coalesce"] = ratio(float64(a.Coalesced-b.Coalesced), flushes)
	hits := float64(after.Pool.Hits - before.Pool.Hits)
	layers["service.pool.hit_frac"] = ratio(hits, hits+float64(after.Pool.Misses-before.Pool.Misses))
	layers["service.pool.evictions"] = float64(after.Pool.Evictions - before.Pool.Evictions)
}

// soloReplay runs the first serveSoloReplays batches of the sequence on the
// local engines twice, as one Engine.Batch and as a loop of Engine.Run,
// and reports the wall-time ratio of the two.
func soloReplay(layers map[string]float64, tr *tracer, engines []*engine.Engine, reqs []serveRequest) error {
	var batchWall, soloWall time.Duration
	var waves, passes int64
	replayed := 0
	for _, req := range reqs {
		if !req.batch {
			continue
		}
		if replayed == serveSoloReplays {
			break
		}
		replayed++
		e := engines[req.target]
		sp := tr.begin("engine.batch.local", -1, -1)
		start := time.Now()
		e.Batch(req.queries)
		batchWall += time.Since(start)
		tr.end(sp)
		for _, q := range req.queries {
			sp := tr.begin("engine.run."+q.Algo, -1, -1)
			start := time.Now()
			res, err := e.Run(q)
			soloWall += time.Since(start)
			tr.end(sp)
			if err != nil {
				return err
			}
			waves += res.Stats.WavesPacked
			passes += res.Stats.LanePasses
		}
	}
	layers["engine.batch.solo_ratio"] = ratio(batchWall.Seconds(), soloWall.Seconds())
	layers["engine.run.waves_per_pass"] = ratio(float64(waves), float64(passes))
	return nil
}
