package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
)

// An engine workload's ops come from a fixed catalog, not straight from
// the seed. Every catalogued op carries the simulated outputs recorded for
// it, so any seed's ops can be checked against recorded values. The
// catalog is cut into strata of similar cost. A run's round takes one op
// from every stratum, chosen and ordered by the seed. So seeds differ in
// their inputs but all have the same spread of op costs, and the medians
// do not move from seed to seed.

// catalogSeed fixes the catalog; the workload seed only picks from it.
const catalogSeed = 20120801

// Op is one catalogued engine operation and the outputs recorded for it.
type Op struct {
	Stratum int `json:"stratum"`
	// Plan is dual-shuffle, broadcast, prepartitioned or hetero; hetero
	// runs workload.HeteroQ3 on cluster.Mixed(2 BeefyL5630, 2 LaptopB).
	Plan        string      `json:"plan"`
	Nodes       int         `json:"nodes"`
	SF          float64     `json:"sf"`
	BuildSel    float64     `json:"build_sel"`
	ProbeSel    float64     `json:"probe_sel"`
	Materialize bool        `json:"materialize,omitempty"`
	HTAP        *HTAPParams `json:"htap,omitempty"`
	Want        Outcome     `json:"want"`
}

// HTAPParams are the parameters of one htap-faults op.
type HTAPParams struct {
	Queries          int     `json:"queries"`
	UpdateRowsPerSec float64 `json:"update_rows_per_s"`
	MaxTailAge       float64 `json:"max_tail_age_s"`
	FaultSeed        int64   `json:"fault_seed"`
	Horizon          float64 `json:"horizon_s"`
	MTTF             float64 `json:"mttf_s"`
	MTTR             float64 `json:"mttr_s"`
	StragglerEvery   float64 `json:"straggler_every_s"`
	StragglerSecs    float64 `json:"straggler_s"`
	StragglerFactor  float64 `json:"straggler_factor"`
}

// Outcome is what an op's simulation produced. Two runs of one op must
// give identical outcomes, to the last bit.
type Outcome struct {
	Seconds    float64 `json:"seconds"`
	Joules     float64 `json:"joules"`
	Rows       int64   `json:"rows"`
	Checksum   uint64  `json:"checksum,omitempty"`
	Retries    int     `json:"retries,omitempty"`
	Failed     int     `json:"failed,omitempty"`
	Crashes    int     `json:"crashes,omitempty"`
	Stragglers int     `json:"stragglers,omitempty"`
	Txns       int64   `json:"txns,omitempty"`
	Merges     int     `json:"merges,omitempty"`
}

// Catalog maps an engine workload name to its ops.
type Catalog map[string][]Op

// writeCatalog writes the catalog as indented JSON, one op per line.
func writeCatalog(path string, c Catalog) error {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	b := []byte("{\n")
	for i, name := range names {
		b = append(b, fmt.Sprintf("  %q: [\n", name)...)
		for j, op := range c[name] {
			line, err := json.Marshal(op)
			if err != nil {
				return err
			}
			b = append(b, "    "...)
			b = append(b, line...)
			if j < len(c[name])-1 {
				b = append(b, ',')
			}
			b = append(b, '\n')
		}
		b = append(b, "  ]"...)
		if i < len(names)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	b = append(b, "}\n"...)
	return os.WriteFile(path, b, 0o644)
}

// round picks one op per stratum with the seed and shuffles them.
func round(ops []Op, seed int64) ([]Op, error) {
	byStratum := map[int][]Op{}
	maxStratum := -1
	for _, op := range ops {
		byStratum[op.Stratum] = append(byStratum[op.Stratum], op)
		if op.Stratum > maxStratum {
			maxStratum = op.Stratum
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Op, 0, maxStratum+1)
	for s := 0; s <= maxStratum; s++ {
		cands := byStratum[s]
		if len(cands) == 0 {
			return nil, fmt.Errorf("catalog: stratum %d is empty", s)
		}
		out = append(out, cands[rng.Intn(len(cands))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// variants is the number of catalogued ops per stratum.
const variants = 4

// span draws uniformly from [lo, hi).
func span(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// strat places variant v of stratum s (of n) inside [lo, hi): each
// stratum owns an equal slice and each variant a sub-slice of it, so the
// catalog covers the range evenly with no cost gap.
func strat(rng *rand.Rand, lo, hi float64, s, n, v int) float64 {
	u := (float64(s) + (float64(v)+rng.Float64())/variants) / float64(n)
	return lo + (hi-lo)*u
}

// planRange is one join plan's parameter ranges in the generated catalog.
type planRange struct {
	plan           string
	sfLo, sfHi     float64
	bselLo, bselHi float64
	pselLo, pselHi float64
}

// generateJoins lays out one stratum per (plan, SF slice) pair. A
// stratum fixes the node count and the selectivities; its variants differ
// in SF and by up to 5% in selectivity, so they cost about the same.
func generateJoins(rng *rand.Rand, plans []planRange, slices int, materialize bool) []Op {
	var ops []Op
	for pi, pr := range plans {
		for s := 0; s < slices; s++ {
			nodes := 4 + rng.Intn(5)
			bsel, psel := span(rng, pr.bselLo, pr.bselHi), span(rng, pr.pselLo, pr.pselHi)
			for v := 0; v < variants; v++ {
				ops = append(ops, Op{
					Stratum:     pi*slices + s,
					Plan:        pr.plan,
					Nodes:       nodes,
					SF:          strat(rng, pr.sfLo, pr.sfHi, s, slices, v),
					BuildSel:    bsel * span(rng, 0.95, 1),
					ProbeSel:    psel * span(rng, 0.95, 1),
					Materialize: materialize,
				})
			}
		}
	}
	return ops
}

// generateCatalog builds every engine workload's ops, without outputs.
func generateCatalog() Catalog {
	rng := rand.New(rand.NewSource(catalogSeed))
	c := Catalog{}
	// The Figure 3/4/5 plans on 4-8 Cluster-V nodes and the Figure 7b
	// heterogeneous plan, all phantom.
	c[paperJoins] = generateJoins(rng, []planRange{
		{"dual-shuffle", 20, 120, 0.02, 0.08, 0.02, 0.08},
		{"broadcast", 40, 240, 0.005, 0.02, 0.02, 0.08},
		{"prepartitioned", 50, 300, 0.02, 0.08, 0.02, 0.08},
		{"hetero", 30, 200, 0.05, 0.15, 0.01, 1},
	}, 16, false)
	c[verifiedJoins] = generateJoins(rng, []planRange{
		{"dual-shuffle", 0.005, 0.04, 0.02, 0.10, 0.02, 0.10},
		{"broadcast", 0.005, 0.04, 0.005, 0.03, 0.02, 0.10},
		{"prepartitioned", 0.005, 0.04, 0.02, 0.10, 0.02, 0.10},
	}, 16, true)
	// Fault plans make htap-faults ops differ in cost far more than their
	// parameters suggest, so their strata are set after recording, by
	// simulated event count (see stratifyByEvents).
	for i := 0; i < 32*variants; i++ {
		c[htapFaults] = append(c[htapFaults], Op{
			Plan:     "dual-shuffle",
			Nodes:    4,
			SF:       span(rng, 10, 40),
			BuildSel: span(rng, 0.03, 0.07),
			ProbeSel: span(rng, 0.03, 0.07),
			HTAP: &HTAPParams{
				Queries:          3,
				UpdateRowsPerSec: span(rng, 1e5, 1e6),
				MaxTailAge:       span(rng, 0.5, 2),
				FaultSeed:        rng.Int63(),
				Horizon:          120,
				MTTF:             span(rng, 6, 30),
				MTTR:             2,
				StragglerEvery:   span(rng, 3, 10),
				StragglerSecs:    2,
				StragglerFactor:  span(rng, 2, 6),
			},
		})
	}
	return c
}

// stratifyByEvents sorts ops by the simulated events each took and makes
// every run of variants consecutive ops one stratum.
func stratifyByEvents(ops []Op, events []uint64) {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return events[idx[a]] < events[idx[b]] })
	sorted := make([]Op, len(ops))
	for rank, i := range idx {
		sorted[rank] = ops[i]
		sorted[rank].Stratum = rank / variants
	}
	copy(ops, sorted)
}
