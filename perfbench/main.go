// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points of the simulator and the serving plane,
// checks every answer, and prints one JSON result line:
//
//	perfbench -workload paper-joins -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer metrics, measured on alternate rounds with spans
// recorded around each call into the repository, and the spans go to a
// trace file in -out. perfbench/run.sh builds this command and cmd/serve
// from the checkout and runs it; README.md describes the workloads.
//
//	perfbench -record catalog.json
//
// runs every catalogued engine op and rewrites the catalog with the
// simulated outputs of the code it was built from.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/sim"
)

const (
	paperJoins    = "paper-joins"
	verifiedJoins = "verified-joins"
	htapFaults    = "htap-faults"
	serveMix      = "serve-mix"
)

//go:embed catalog.json
var catalogJSON []byte

type options struct {
	seed      int64
	seconds   float64
	trace     bool
	servePath string
	outDir    string
}

func main() {
	var (
		name   = flag.String("workload", "", "paper-joins, verified-joins, htap-faults or serve-mix")
		seed   = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs   = flag.Float64("seconds", 20, "how long the timed ops run, in seconds")
		trace  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
		serve  = flag.String("serve", "", "the built cmd/serve binary (serve-mix)")
		outDir = flag.String("out", ".", "directory for the trace file")
		record = flag.String("record", "", "rewrite this catalog file with freshly simulated outputs, then exit")
	)
	flag.Parse()
	// One processor: at two, a serial simulation loses 15-20% to
	// cross-processor handoffs, and unevenly (see README.md).
	runtime.GOMAXPROCS(1)

	if *record != "" {
		if err := recordCatalog(*record); err != nil {
			fatalf("perfbench: %v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("perfbench: -trace must be 0 or 1, got %d", *trace)
	}
	if *secs <= 0 {
		fatalf("perfbench: -seconds must be positive, got %v", *secs)
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, servePath: *serve, outDir: *outDir}

	var cat Catalog
	if err := json.Unmarshal(catalogJSON, &cat); err != nil {
		fatalf("perfbench: catalog.json: %v", err)
	}

	var res Result
	var err error
	switch *name {
	case paperJoins, verifiedJoins, htapFaults:
		res, err = runEngine(*name, cat[*name], o)
	case serveMix:
		if o.servePath == "" {
			fatalf("perfbench: serve-mix needs -serve, the built cmd/serve binary")
		}
		res, err = runServe(o)
	default:
		fatalf("perfbench: unknown -workload %q (want %s, %s, %s or %s)",
			*name, paperJoins, verifiedJoins, htapFaults, serveMix)
	}
	if err != nil {
		fatalf("perfbench: %s: %v", *name, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("perfbench: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// recordCatalog simulates every op of a freshly generated catalog and
// writes it with the outputs. Materialized answers must match
// pstore.ReferenceJoin before they are recorded.
func recordCatalog(path string) error {
	cat := generateCatalog()
	for name, ops := range cat {
		events := make([]uint64, len(ops))
		for i := range ops {
			ev := sim.TotalEvents()
			got, err := execute(ops[i], nil, 0, nil)
			if err != nil {
				return fmt.Errorf("%s op %d: %v", name, i, err)
			}
			events[i] = sim.TotalEvents() - ev
			if ref := referenceFor(ops[i]); ref != nil && (got.Rows != ref.rows || got.Checksum != ref.checksum) {
				return fmt.Errorf("%s op %d: answer differs from pstore.ReferenceJoin", name, i)
			}
			ops[i].Want = got
		}
		if name == htapFaults {
			stratifyByEvents(ops, events)
		}
	}
	return writeCatalog(path, cat)
}
