package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/pstore"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// faultRetry is the fault experiments' retry policy (fault1/fault2).
var faultRetry = pstore.RetryPolicy{Timeout: 30, MaxRetries: 6, Backoff: 0.25, BackoffCap: 2}

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// warmOps is the number of ops one set-up runs untimed.
	warmOps = 8
	// heapRounds is the fixed amount of work peak_heap_mb covers. The
	// heap grows with every op run (see README.md), so a peak over the
	// whole run would follow the host's speed.
	heapRounds = 8
)

func (op Op) clusterConfig() cluster.Config {
	if op.Plan == "hetero" {
		return cluster.Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB())
	}
	return cluster.Homogeneous(op.Nodes, hw.ClusterV())
}

func (op Op) joinSpec() pstore.JoinSpec {
	sf := tpch.ScaleFactor(op.SF)
	var s pstore.JoinSpec
	switch op.Plan {
	case "broadcast":
		s = workload.Q3Join(sf, op.BuildSel, op.ProbeSel, pstore.Broadcast)
	case "prepartitioned":
		s = workload.Q3JoinPrepartitioned(sf, op.BuildSel, op.ProbeSel)
	case "hetero":
		s = workload.HeteroQ3(sf, op.BuildSel, op.ProbeSel, []int{0, 1})
	default:
		s = workload.Q3Join(sf, op.BuildSel, op.ProbeSel, pstore.DualShuffle)
	}
	s.Build.Materialize, s.Probe.Materialize = op.Materialize, op.Materialize
	return s
}

// engineConfig is cmd/pstore's configuration: 200k-row batches, or
// 4096-row batches when the tables are materialized.
func (op Op) engineConfig() pstore.Config {
	if op.Materialize {
		return pstore.Config{WarmCache: true, BatchRows: 4096}
	}
	return pstore.Config{WarmCache: true, BatchRows: 200_000}
}

func (op Op) faultedSpec() workload.FaultedSpec {
	h := op.HTAP
	return workload.FaultedSpec{
		HTAP: workload.HTAPSpec{
			SF: tpch.ScaleFactor(op.SF), Queries: h.Queries,
			BuildSel: op.BuildSel, ProbeSel: op.ProbeSel,
			UpdateRowsPerSec: h.UpdateRowsPerSec,
			Delta:            delta.Config{MaxTailAge: h.MaxTailAge},
		},
		Faults: fault.Config{
			Seed: h.FaultSeed, Horizon: h.Horizon, MTTF: h.MTTF, MTTR: h.MTTR,
			StragglerEvery: h.StragglerEvery, StragglerSecs: h.StragglerSecs,
			StragglerFactor: h.StragglerFactor,
		},
		Retry: faultRetry,
	}
}

// tableRows is the number of rows in the two tables one join reads.
func (op Op) tableRows() int64 {
	s := op.joinSpec()
	return s.Build.TotalRows() + s.Probe.TotalRows()
}

// reference is a materialized join's answer from pstore.ReferenceJoin.
type reference struct {
	rows     int64
	checksum uint64
}

func referenceFor(op Op) *reference {
	if !op.Materialize {
		return nil
	}
	s := op.joinSpec()
	rows, sum := pstore.ReferenceJoin(s.Build, s.Probe, op.BuildSel, op.ProbeSel)
	return &reference{rows, sum}
}

// check compares an op's outputs with the reference join and with the
// outputs recorded in the catalog.
func check(op Op, got Outcome, ref *reference) error {
	if ref != nil && (got.Rows != ref.rows || got.Checksum != ref.checksum) {
		return fmt.Errorf("join answer rows=%d checksum=%d, pstore.ReferenceJoin says rows=%d checksum=%d",
			got.Rows, got.Checksum, ref.rows, ref.checksum)
	}
	if got != op.Want {
		return fmt.Errorf("simulated outputs %+v differ from the recorded %+v", got, op.Want)
	}
	return nil
}

// layerAcc accumulates the per-layer counts of the traced ops.
type layerAcc struct {
	ops       int
	events    uint64
	engineNs  float64
	newUs     []float64
	runMs     []float64
	allocObjs uint64
	allocB    uint64
	rows      int64
	gcCycles  uint64
	gcCPU     float64
	totalCPU  float64
	faulted   bool
	queries   int
	retries   int
	failedQ   int
	txns      int64
	txnRows   int64
	merges    int
	crashes   int
	straggles int
}

// execute runs one op: cluster.New, then pstore.RunJoin (or
// workload.RunFaulted for an htap-faults op). With acc set it also
// records the op's spans and per-layer counts.
func execute(op Op, tr *tracer, opID int, acc *layerAcc) (Outcome, error) {
	t0 := time.Now()
	c, err := cluster.New(op.clusterConfig())
	if err != nil {
		return Outcome{}, err
	}
	t1 := time.Now()
	var rs runtimeSample
	var ev uint64
	if acc != nil {
		rs, ev = readRuntime(), sim.TotalEvents()
	}
	t2 := time.Now()
	var out Outcome
	var fr workload.FaultedResult
	name := "pstore.RunJoin"
	if op.HTAP == nil {
		res, joules, err := pstore.RunJoin(c, op.engineConfig(), op.joinSpec())
		if err != nil {
			return Outcome{}, err
		}
		out = Outcome{Seconds: res.Seconds, Joules: joules, Rows: res.OutputRows, Checksum: res.Checksum}
	} else {
		name = "workload.RunFaulted"
		fr, err = workload.RunFaulted(c, op.engineConfig(), op.faultedSpec())
		if err != nil {
			return Outcome{}, err
		}
		out = Outcome{
			Seconds: fr.Makespan, Joules: fr.Joules, Rows: fr.TxnRows,
			Retries: fr.Retries, Failed: fr.Failed,
			Crashes: fr.Faults.Crashes, Stragglers: fr.Faults.Stragglers,
			Txns: fr.Txns, Merges: fr.Merges,
		}
	}
	t3 := time.Now()
	if acc == nil {
		return out, nil
	}
	re, evEnd := readRuntime(), sim.TotalEvents()
	root := tr.add("op", 0, opID, t0, t3, fmt.Sprintf("%s nodes=%d sf=%.6g", op.Plan, op.Nodes, op.SF))
	tr.add("cluster.New", root, opID, t0, t1, "")
	tr.add(name, root, opID, t2, t3, "")

	acc.ops++
	acc.events += evEnd - ev
	acc.engineNs += float64(t3.Sub(t2).Nanoseconds())
	acc.newUs = append(acc.newUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	acc.runMs = append(acc.runMs, float64(t3.Sub(t2).Nanoseconds())/1e6)
	acc.allocObjs += re.allocObjs - rs.allocObjs
	acc.allocB += re.allocBytes - rs.allocBytes
	if op.HTAP == nil {
		acc.rows += op.tableRows()
		return out, nil
	}
	acc.faulted = true
	attempts := op.HTAP.Queries + fr.Retries
	acc.rows += int64(attempts) * op.tableRows()
	acc.queries += op.HTAP.Queries
	acc.retries += fr.Retries
	acc.failedQ += fr.Failed
	acc.txns += fr.Txns
	acc.txnRows += fr.TxnRows
	acc.merges += fr.Merges
	acc.crashes += fr.Faults.Crashes
	acc.straggles += fr.Faults.Stragglers
	return out, nil
}

func (a *layerAcc) addRuntime(from, to runtimeSample) {
	a.gcCycles += to.gcCycles - from.gcCycles
	a.gcCPU += to.gcCPU - from.gcCPU
	a.totalCPU += to.totalCPU - from.totalCPU
}

func (a *layerAcc) values(tail float64) map[string]float64 {
	v := map[string]float64{}
	if a.ops == 0 {
		return v
	}
	n := float64(a.ops)
	v["sim.events_per_op"] = float64(a.events) / n
	if a.events > 0 {
		v["sim.ns_per_event"] = a.engineNs / float64(a.events)
	}
	v["cluster.new_us"] = median(a.newUs)
	run := "pstore.run_join_ms"
	if a.faulted {
		run = "workload.run_faulted_ms"
	}
	v[run+"_p50"] = median(a.runMs)
	v[run+"_tail"] = pct(a.runMs, tail)
	v["pstore.allocs_per_op"] = float64(a.allocObjs) / n
	v["pstore.alloc_mb_per_op"] = float64(a.allocB) / n / (1 << 20)
	v["storage.rows_per_op"] = float64(a.rows) / n
	if a.rows > 0 {
		v["storage.ns_per_row"] = a.engineNs / float64(a.rows)
	}
	if a.totalCPU > 0 {
		v["runtime.gc_cpu_pct"] = 100 * a.gcCPU / a.totalCPU
	}
	v["runtime.gc_per_op"] = float64(a.gcCycles) / n
	if a.faulted {
		v["pstore.retries_per_op"] = float64(a.retries) / n
		v["pstore.failed_queries_per_op"] = float64(a.failedQ) / n
		v["pstore.useful_attempt_ratio"] = float64(a.queries-a.failedQ) / float64(a.queries+a.retries)
		v["delta.txns_per_op"] = float64(a.txns) / n
		v["delta.rows_per_op"] = float64(a.txnRows) / n
		v["delta.merges_per_op"] = float64(a.merges) / n
		v["fault.crashes_per_op"] = float64(a.crashes) / n
		v["fault.stragglers_per_op"] = float64(a.straggles) / n
	}
	return v
}

func (a *layerAcc) counts() map[string]int64 {
	return map[string]int64{
		"ops": int64(a.ops), "sim.events": int64(a.events),
		"pstore.allocs": int64(a.allocObjs), "pstore.alloc_bytes": int64(a.allocB),
		"storage.rows": a.rows, "runtime.gc_cycles": int64(a.gcCycles),
		"pstore.queries": int64(a.queries), "pstore.retries": int64(a.retries),
		"pstore.failed_queries": int64(a.failedQ),
		"delta.txns":            a.txns, "delta.rows": a.txnRows, "delta.merges": int64(a.merges),
		"fault.crashes": int64(a.crashes), "fault.stragglers": int64(a.straggles),
	}
}

// failures counts failed ops and reports the first few on stderr.
type failures struct{ attempted, failed int }

// note counts one attempted op; what names it when err is not nil.
func (f *failures) note(err error, what func() string) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if f.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what(), err)
	}
}

// runEngine measures an in-process engine workload: rounds of the
// seed's ops, one after another, until the run's time is up.
func runEngine(name string, ops []Op, o options) (Result, error) {
	rnd, err := round(ops, o.seed)
	if err != nil {
		return Result{}, err
	}
	// Reference answers are computed before set-up and never timed.
	refs := make([]*reference, len(rnd))
	for i, op := range rnd {
		refs[i] = referenceFor(op)
	}
	var f failures
	runOp := func(i int, tr *tracer, opID int, acc *layerAcc) time.Duration {
		t := time.Now()
		got, err := execute(rnd[i], tr, opID, acc)
		d := time.Since(t)
		if err == nil {
			err = check(rnd[i], got, refs[i])
		}
		f.note(err, func() string { return fmt.Sprintf("%s op %d (%s sf=%g)", name, opID, rnd[i].Plan, rnd[i].SF) })
		return d
	}

	// One set-up runs warm-up ops and a collection. The warm-up ops come
	// from strata spread evenly over the catalog, so every seed warms up
	// on about the same cost. The first set-up comes before the timed
	// rounds; the others are spread between rounds over the run, so that
	// their median does not rest on one host phase.
	var warm []int
	every := max(len(rnd)/warmOps, 1)
	for i, op := range rnd {
		if op.Stratum%every == 0 {
			warm = append(warm, i)
		}
	}
	var setups []float64
	setup := func() {
		t := time.Now()
		for _, i := range warm {
			runOp(i, nil, 0, nil)
		}
		runtime.GC()
		setups = append(setups, time.Since(t).Seconds())
	}
	setup()

	heap := startHeapSampler()
	start := time.Now()
	tr := newTracer(start)
	acc := &layerAcc{}
	var durs []float64
	var lats [][]float64
	peak := 0.0
	var opsBy [2]int
	var durBy [2]float64
	for r := 0; ; r++ {
		traced := o.trace && r%2 == 1
		var rtr *tracer
		var racc *layerAcc
		var rs runtimeSample
		if traced {
			rtr, racc, rs = tr, acc, readRuntime()
		}
		rstart := time.Now()
		lat := make([]float64, len(rnd))
		for i := range rnd {
			lat[i] = float64(runOp(i, rtr, r*len(rnd)+i+1, racc).Nanoseconds()) / 1e6
		}
		lats = append(lats, lat)
		k := 0
		if traced {
			k = 1
			acc.addRuntime(rs, readRuntime())
		}
		rd := time.Since(rstart).Seconds()
		durs = append(durs, rd)
		durBy[k] += rd
		opsBy[k] += len(rnd)
		if r < heapRounds {
			peak = math.Max(peak, heap.roundPeak())
		}
		elapsed := time.Since(start).Seconds()
		if len(setups) < setupReps && elapsed >= o.seconds*float64(len(setups))/setupReps {
			setup()
		}
		if elapsed >= o.seconds && r+1 >= heapRounds && (!o.trace || traced) {
			break
		}
	}
	for len(setups) < setupReps {
		setup()
	}
	heap.close()

	res := Result{Correct: f.failed == 0, Attempted: f.attempted, Failed: f.failed}
	if !o.trace {
		lat := fasterHalf(durs, lats)
		res.Metrics = map[string]Metric{
			"setup_s":      {median(setups), "s"},
			"ops_per_s":    {float64(len(rnd)) / pct(durs, 25), "1/s"},
			"p50_ms":       {median(lat), "ms"},
			"tail_ms":      {pct(lat, tailPct[name]), "ms"},
			"peak_heap_mb": {peak, "MB"},
		}
		return res, nil
	}
	vals := acc.values(tailPct[name])
	overhead(vals, opsBy[1], opsBy[0], durBy[1], durBy[0])
	res.Metrics = layerMetrics(vals)
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
	err = writeTrace(path, traceFile{
		Workload: name, Seed: o.seed, Spans: tr.spans, DroppedSpans: tr.dropped,
		Counts: acc.counts(), Metrics: res.Metrics,
	})
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return res, nil
}
