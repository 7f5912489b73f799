package main

import (
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func testCatalog(t *testing.T) Catalog {
	t.Helper()
	var c Catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogStrata(t *testing.T) {
	for name, ops := range testCatalog(t) {
		per := map[int]int{}
		for _, op := range ops {
			per[op.Stratum]++
		}
		for s := 0; s < len(per); s++ {
			if per[s] != variants {
				t.Errorf("%s: stratum %d has %d ops, want %d", name, s, per[s], variants)
			}
		}
	}
}

func TestRoundFollowsSeed(t *testing.T) {
	ops := testCatalog(t)[paperJoins]
	a, err := round(ops, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := round(ops, 7)
	c, _ := round(ops, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different rounds")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same round")
	}
	seen := map[int]bool{}
	for _, op := range a {
		seen[op.Stratum] = true
	}
	if len(seen) != len(a) || len(a) != len(ops)/variants {
		t.Errorf("round has %d ops over %d strata, want one op from each of %d strata", len(a), len(seen), len(ops)/variants)
	}
}

// TestOpsReplayRecordedOutputs runs one op of each engine workload and
// checks it against the catalog, then feeds the checker wrong answers.
func TestOpsReplayRecordedOutputs(t *testing.T) {
	cat := testCatalog(t)
	for _, name := range []string{paperJoins, verifiedJoins, htapFaults} {
		op := cat[name][0]
		got, err := execute(op, nil, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := referenceFor(op)
		if err := check(op, got, ref); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		wrong := got
		wrong.Joules = math.Nextafter(wrong.Joules, math.Inf(1))
		if check(op, wrong, ref) == nil {
			t.Errorf("%s: joules one ulp off passed the check", name)
		}
		if ref != nil {
			wrong := got
			wrong.Checksum++
			if check(op, wrong, ref) == nil {
				t.Errorf("%s: a wrong checksum passed the check", name)
			}
		}
	}
}

// TestWrongAnswerCountsAsFailedOp runs the measuring loop on an op whose
// recorded outputs are wrong: every attempt must count as failed.
func TestWrongAnswerCountsAsFailedOp(t *testing.T) {
	op := testCatalog(t)[verifiedJoins][0]
	op.Want.Checksum++
	res, err := runEngine(verifiedJoins, []Op{op}, options{seed: 1, seconds: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("got correct=%v attempted=%d failed=%d, want every attempt failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestServeAnswerChecks(t *testing.T) {
	m := &memo{}
	m.joins[3] = serveResp{Status: "ok", Cache: "miss", Seconds: 0.5, Joules: 90}
	m.designs[1] = serveResp{Status: "ok", Design: "2B,2W", Seconds: 3, Joules: 700}
	hit := serveReq{kind: joinHit, shape: 3}
	dhit := serveReq{kind: designHit, shape: 1}
	for _, tc := range []struct {
		name string
		q    serveReq
		r    serveResp
		ok   bool
	}{
		{"join hit", hit, serveResp{Status: "ok", Cache: "hit", Seconds: 0.5, Joules: 90}, true},
		{"shed", hit, serveResp{Status: "shed", Error: "service: displaced"}, false},
		{"deadline", hit, serveResp{Status: "deadline"}, false},
		{"hit answered as a miss", hit, serveResp{Status: "ok", Cache: "miss", Seconds: 0.5, Joules: 90}, false},
		{"hit with another answer", hit, serveResp{Status: "ok", Cache: "hit", Seconds: 0.5, Joules: 91}, false},
		{"join miss", serveReq{kind: joinMiss}, serveResp{Status: "ok", Cache: "miss", Seconds: 1, Joules: 2}, true},
		{"miss answered from memory", serveReq{kind: joinMiss}, serveResp{Status: "ok", Cache: "hit", Seconds: 1, Joules: 2}, false},
		{"design hit", dhit, serveResp{Status: "ok", Design: "2B,2W", Seconds: 3, Joules: 700}, true},
		{"design hit with another design", dhit, serveResp{Status: "ok", Design: "4B,0W", Seconds: 3, Joules: 700}, false},
		{"design miss", serveReq{kind: designMiss}, serveResp{Status: "ok", Design: "0B,4W", Seconds: 2}, true},
		{"design error", serveReq{kind: designMiss}, serveResp{Status: "error", Error: "service: nodes must be in [1,256]"}, false},
	} {
		if err := checkResp(tc.q, tc.r, m); (err == nil) != tc.ok {
			t.Errorf("%s: check returned %v", tc.name, err)
		}
	}
}

func TestServeRoundPlan(t *testing.T) {
	tr := newServeTrace(5)
	var counts [4]int
	seen := map[string]bool{}
	for r := 0; r < 3; r++ {
		for _, q := range tr.round(r) {
			counts[q.kind]++
			if q.kind == joinMiss || q.kind == designMiss {
				if seen[q.body] {
					t.Errorf("miss %s repeats", q.body)
				}
				seen[q.body] = true
			}
		}
	}
	want := [4]int{3 * roundJoinHits, 3 * (serveRound - roundJoinHits - roundJoinMisses - roundDesignMiss), 3 * roundJoinMisses, 3 * roundDesignMiss}
	if counts != want {
		t.Errorf("three rounds hold %v requests by kind, want %v", counts, want)
	}
	for _, b := range append(tr.joins, tr.designs...) {
		if seen[b] {
			t.Errorf("miss %s repeats a memo-warmed shape", b)
		}
	}
}

// TestServeMix drives a freshly built cmd/serve for a moment.
func TestServeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/serve")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/serve").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/serve: %v\n%s", err, out)
	}
	for _, trace := range []bool{false, true} {
		res, err := runServe(options{seed: 3, seconds: 0.2, trace: trace, servePath: bin, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if trace {
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			want := float64(roundJoinHits) / float64(roundJoinHits+roundJoinMisses)
			if got := res.Metrics["service.memo_hit_ratio"].Value; got != want {
				t.Errorf("memo hit ratio %v, want the plan's %v", got, want)
			}
		} else if res.Metrics["ops_per_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
			t.Errorf("end-to-end metrics %v", res.Metrics)
		}
	}
}
