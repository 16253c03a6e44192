package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianDur(ds []time.Duration) time.Duration { return percentileDur(ds, 50) }

// percentileDur is the nearest-rank percentile: with n samples, p90 is the
// ceil(0.9n)-th smallest, so 10 samples lie beyond it once n ≥ 100.
func percentileDur(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank(len(sorted), p)]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func rank(n, p int) int {
	idx := (p*n + 99) / 100
	return min(max(idx, 1), n) - 1
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeCounters is a snapshot of the process-wide counters behind the
// runtime.* per-layer metrics.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

// addDelta adds the counters' growth from before to after.
func (c *runtimeCounters) addDelta(before, after runtimeCounters) {
	c.gcCPU += after.gcCPU - before.gcCPU
	c.totalCPU += after.totalCPU - before.totalCPU
	c.allocBytes += after.allocBytes - before.allocBytes
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostProbe is a fixed amount of host work timed before and after a
// workload, so that a run whose figures stand out can be matched against
// how fast the host itself was at the time. It never feeds a metric.
type hostProbe struct {
	When  string  `json:"when"`
	ALUMS float64 `json:"alu_ms"` // fixed xorshift loop: core speed
	MemMS float64 `json:"mem_ms"` // fixed random walk over 16 MB: memory latency
}

const (
	probeALUSteps = 30_000_000
	probeMemWords = 4 << 20 // 16 MB of uint32
	probeMemSteps = 1 << 19
)

// probeRing builds a single random cycle over probeMemWords slots
// (Sattolo's algorithm with a fixed xorshift stream).
func probeRing() []uint32 {
	ring := make([]uint32, probeMemWords)
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

// probeSink keeps the probe loops' results live.
var probeSink uint64

func probe(when string) hostProbe {
	start := time.Now()
	x := uint64(2463534242)
	for i := 0; i < probeALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	alu := time.Since(start)

	ring := probeRing()
	start = time.Now()
	p := uint32(0)
	for i := 0; i < probeMemSteps; i++ {
		p = ring[p]
	}
	mem := time.Since(start)
	probeSink += x + uint64(p)
	// The ring is dead here: returning it to the OS keeps it out of the
	// workload's peak RSS.
	debug.FreeOSMemory()
	return hostProbe{When: when, ALUMS: ms(alu), MemMS: ms(mem)}
}
