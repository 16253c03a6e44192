package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share Req; set-up and replay spans use
// Req = -1. Start and End are nanoseconds since the tracer started.
type span struct {
	Name       string `json:"name"`
	Req        int    `json:"req"`
	Parent     int    `json:"parent"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Synthetic marks spans whose duration is known but whose placement is
	// not: the server-side RequestRecord phases, laid out inside the client
	// span they belong to.
	Synthetic bool `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs execute the same code with every call a no-op.
type tracer struct {
	t0       time.Time
	spans    []span
	allocs   []metrics.Sample
	overhead time.Duration // begin/end bookkeeping around timed requests
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	enter := time.Now()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, AllocBytes: t.heapAllocs()})
	id := len(t.spans) - 1
	now := time.Now()
	t.spans[id].Start = now.Sub(t.t0).Nanoseconds()
	if req >= 0 {
		t.overhead += now.Sub(enter)
	}
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	sp := &t.spans[id]
	sp.End = now.Sub(t.t0).Nanoseconds()
	sp.AllocBytes = t.heapAllocs() - sp.AllocBytes
	if sp.Req >= 0 {
		t.overhead += time.Since(now)
	}
}

// add records a span measured elsewhere (a client request timed by its own
// goroutine, or a server-side phase) and returns its id.
func (t *tracer) add(name string, req, parent int, start time.Time, dur time.Duration, synthetic bool) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: s, End: s + dur.Nanoseconds(), Synthetic: synthetic})
	return len(t.spans) - 1
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
	}
	return out
}

// allocBytes returns the heap bytes allocated during every span with the given
// name.
func (t *tracer) allocBytes(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.AllocBytes))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (overlapping children are merged before subtracting).
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][][2]int64)
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE int64
		open := false
		for _, iv := range ivs {
			s, e := max(iv[0], sp.Start), min(iv[1], sp.End)
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s > curE:
				covered += curE - curS
				curS, curE = s, e
			case e > curE:
				curE = e
			}
		}
		if open {
			covered += curE - curS
		}
		self[i] = time.Duration(sp.End - sp.Start - covered)
	}
	return self
}

// layerSummary is the per-span-name digest written beside the spans.
type layerSummary struct {
	Count        int     `json:"count"`
	MedianMS     float64 `json:"median_ms"`
	MedianSelfMS float64 `json:"median_self_ms"`
	TotalSelfMS  float64 `json:"total_self_ms"`
}

func (t *tracer) summary() map[string]layerSummary {
	self := t.selfTimes()
	durs := make(map[string][]time.Duration)
	selfs := make(map[string][]time.Duration)
	for i, sp := range t.spans {
		durs[sp.Name] = append(durs[sp.Name], time.Duration(sp.End-sp.Start))
		selfs[sp.Name] = append(selfs[sp.Name], self[i])
	}
	out := make(map[string]layerSummary, len(durs))
	for name, ds := range durs {
		var total time.Duration
		for _, s := range selfs[name] {
			total += s
		}
		out[name] = layerSummary{
			Count:        len(ds),
			MedianMS:     ms(medianDur(ds)),
			MedianSelfMS: ms(medianDur(selfs[name])),
			TotalSelfMS:  ms(total),
		}
	}
	return out
}

// write stores the spans and their per-name summary as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Summary map[string]layerSummary `json:"summary"`
		Spans   []span                  `json:"spans"`
	}{t.summary(), t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
