package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tailPct is the latency percentile reported as tail_ms, over the faster
// half of a run's rounds. On the engine workloads that half holds about
// 400-700 ops: p95 keeps ten ops beyond it even at half today's speed,
// while p98 and up read the few costliest ops of each round and swing
// from run to run. On serve-mix it holds several hundred thousand
// requests: p99 reads the hits that queue behind engine runs, while p99.9
// reads a few hundred of them and swings by a quarter from run to run.
var tailPct = map[string]float64{
	paperJoins:    95,
	verifiedJoins: 95,
	htapFaults:    95,
	serveMix:      99,
}

// pct returns the p-th percentile (nearest rank) of xs; 0 when empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// fasterHalf returns the latencies of the rounds that took no longer than
// the median round. Every round of a run does the same work, so a round's
// duration is set by the host: this host alternates fast and slow phases
// that last from half a second to a whole run (see README.md), and the
// faster half of the rounds is what the code itself decides.
func fasterHalf(durs []float64, lats [][]float64) []float64 {
	idx := make([]int, len(durs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return durs[idx[a]] < durs[idx[b]] })
	var out []float64
	for _, i := range idx[:(len(idx)+1)/2] {
		out = append(out, lats[i]...)
	}
	return out
}

// runtimeSample reads the runtime counters the per-layer metrics use.
type runtimeSample struct {
	allocObjs, allocBytes, gcCycles uint64
	gcCPU, totalCPU                 float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// heapSampler tracks the peak of the heap (live and not yet swept
// objects) while the timed ops run. The heap peaks just before each
// collection, so sampling every millisecond finds the peak of every
// cycle that lasts longer than that.
type heapSampler struct {
	peak atomic.Uint64 // bytes, since the last roundPeak
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// roundPeak returns the peak in MiB since the last call and starts a new
// one.
func (h *heapSampler) roundPeak() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to end.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// Span is one traced interval. Spans of one op share Op; Parent 0 marks
// the op's root span.
type Span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Detail string  `json:"detail,omitempty"`
}

// maxSpans caps the spans kept for the trace file; metrics still use
// every traced op.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	spans   []Span
	dropped int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records a span and returns its ID (0 when the span was dropped).
func (t *tracer) add(name string, parent, op int, start, end time.Time, detail string) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start:  float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:    float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
		Detail: detail,
	})
	return id
}

// traceFile is the machine-readable record of a traced run.
type traceFile struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Spans        []Span            `json:"spans"`
	DroppedSpans int               `json:"dropped_spans"`
	Counts       map[string]int64  `json:"counts"`
	Metrics      map[string]Metric `json:"metrics"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"cluster.new_us", "us"},
	{"pstore.run_join_ms_p50", "ms"},
	{"pstore.run_join_ms_tail", "ms"},
	{"pstore.allocs_per_op", "count"},
	{"pstore.alloc_mb_per_op", "MB"},
	{"storage.rows_per_op", "count"},
	{"storage.ns_per_row", "ns"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_per_op", "count"},
	{"workload.run_faulted_ms_p50", "ms"},
	{"workload.run_faulted_ms_tail", "ms"},
	{"pstore.retries_per_op", "count"},
	{"pstore.failed_queries_per_op", "count"},
	{"pstore.useful_attempt_ratio", "ratio"},
	{"delta.txns_per_op", "count"},
	{"delta.rows_per_op", "count"},
	{"delta.merges_per_op", "count"},
	{"fault.crashes_per_op", "count"},
	{"fault.stragglers_per_op", "count"},
	{"service.io_us", "us"},
	{"service.cpu_us_per_req", "us"},
	{"service.queue_us_p50", "us"},
	{"service.queue_us_tail", "us"},
	{"service.join_hit_us", "us"},
	{"service.join_miss_ms", "ms"},
	{"service.design_hit_us", "us"},
	{"service.design_miss_us", "us"},
	{"service.memo_hit_ratio", "ratio"},
	{"service.shed", "count"},
	{"service.deadline", "count"},
	{"trace.ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics fills in every per-layer metric from the values a workload
// measured.
func layerMetrics(vals map[string]float64) map[string]Metric {
	m := make(map[string]Metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = Metric{Value: vals[l.name], Unit: l.unit}
	}
	return m
}

// overhead fills in the trace.* metrics from the traced and untraced
// rounds' throughput.
func overhead(vals map[string]float64, tracedOps, untracedOps int, tracedS, untracedS float64) {
	if tracedS <= 0 || untracedS <= 0 {
		return
	}
	t, u := float64(tracedOps)/tracedS, float64(untracedOps)/untracedS
	vals["trace.ops_per_s"] = t
	vals["trace.untraced_ops_per_s"] = u
	vals["trace.overhead_pct"] = 100 * (u - t) / u
}
