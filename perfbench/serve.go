package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// serve-mix drives the built cmd/serve over its stdin/stdout JSON-lines
// pipe with v1 envelopes. serveClients closed-loop clients, more than the
// server's 4 workers, share the pipe. Requests come in rounds of
// serveRound with a fixed share of each kind, so whether a request hits
// the memo is set by the trace, never by timing.
const (
	serveClients    = 16
	hotClients      = 12 // the rest are quiet tenants, one each
	serveRound      = 4000
	roundJoinHits   = 2400
	roundJoinMisses = 8
	roundDesignMiss = 12
	// The rest of a round are design hits.
	joinShapes   = 32
	designShapes = 32
	lowShare     = 0.25
	warmRequests = 4000
	// serveHeapRounds is the fixed amount of work peak_heap_mb covers: every
	// engine miss grows cmd/serve's heap (see README.md), so a peak over
	// the whole run would follow the host's speed.
	serveHeapRounds = 40
)

type reqKind int

const (
	joinHit reqKind = iota
	designHit
	joinMiss
	designMiss
)

var kindNames = [...]string{"join-hit", "design-hit", "join-miss", "design-miss"}

// serveReq is one planned request.
type serveReq struct {
	kind  reqKind
	shape int // join or design shape, for hits
	low   bool
	body  string // the envelope's "join" or "design" member
	round int
}

// serveResp is the part of a cmd/serve response the benchmark reads.
type serveResp struct {
	ID           string  `json:"id"`
	Status       string  `json:"status"`
	Error        string  `json:"error"`
	Cache        string  `json:"cache"`
	Seconds      float64 `json:"seconds"`
	Joules       float64 `json:"joules"`
	Design       string  `json:"design"`
	QueueSeconds float64 `json:"queue_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
}

func tenantOf(client int) string {
	if client < hotClients {
		return "hot"
	}
	return fmt.Sprintf("quiet%d", client-hotClients+1)
}

func num(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

var methods = [...]string{"dual-shuffle", "broadcast", "prepartitioned"}

func joinBody(rng *rand.Rand, sf float64, method string) string {
	return fmt.Sprintf(`"join":{"sf":%s,"build_sel":%s,"probe_sel":%s,"method":%q}`,
		num(sf), num(span(rng, 0.02, 0.1)), num(span(rng, 0.02, 0.1)), method)
}

func designBody(rng *rand.Rand, buildGB float64) string {
	return fmt.Sprintf(`"design":{"build_gb":%s,"probe_gb":%s,"nodes":%d,"target":%s}`,
		num(buildGB), num(span(rng, 1000, 6000)), 4+rng.Intn(13), num(span(rng, 0.4, 0.9)))
}

// serveTrace generates a run's requests from its seed.
type serveTrace struct {
	rng     *rand.Rand
	joins   []string
	designs []string
}

func newServeTrace(seed int64) *serveTrace {
	t := &serveTrace{rng: rand.New(rand.NewSource(seed))}
	for k := 0; k < joinShapes; k++ {
		t.joins = append(t.joins, joinBody(t.rng, strat(t.rng, 0.5, 8, k/variants, joinShapes/variants, k%variants), methods[k%3]))
	}
	for k := 0; k < designShapes; k++ {
		t.designs = append(t.designs, designBody(t.rng, span(t.rng, 100, 1500)))
	}
	return t
}

// fill lists every shape once, to warm the server's memo.
func (t *serveTrace) fill() []serveReq {
	var out []serveReq
	for k, b := range t.joins {
		out = append(out, serveReq{kind: joinMiss, shape: k, body: b})
	}
	for k, b := range t.designs {
		out = append(out, serveReq{kind: designMiss, shape: k, body: b})
	}
	return out
}

// hits lists n memo hits of both kinds.
func (t *serveTrace) hits(n int) []serveReq {
	out := make([]serveReq, n)
	for i := range out {
		if i%2 == 0 {
			k := t.rng.Intn(joinShapes)
			out[i] = serveReq{kind: joinHit, shape: k, body: t.joins[k]}
		} else {
			k := t.rng.Intn(designShapes)
			out[i] = serveReq{kind: designHit, shape: k, body: t.designs[k]}
		}
	}
	return out
}

// round returns round r's requests in a seeded order. The misses are
// never repeated: each has its own continuous parameters, spread evenly
// over the round's SF range.
func (t *serveTrace) round(r int) []serveReq {
	out := make([]serveReq, 0, serveRound)
	for i := 0; i < roundJoinMisses; i++ {
		sf := strat(t.rng, 0.5, 4, i, roundJoinMisses, t.rng.Intn(variants))
		out = append(out, serveReq{kind: joinMiss, body: joinBody(t.rng, sf, methods[i%3])})
	}
	for i := 0; i < roundDesignMiss; i++ {
		out = append(out, serveReq{kind: designMiss, body: designBody(t.rng, span(t.rng, 100, 1500))})
	}
	for i := 0; i < roundJoinHits; i++ {
		k := t.rng.Intn(joinShapes)
		out = append(out, serveReq{kind: joinHit, shape: k, body: t.joins[k]})
	}
	for len(out) < serveRound {
		k := t.rng.Intn(designShapes)
		out = append(out, serveReq{kind: designHit, shape: k, body: t.designs[k]})
	}
	t.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].low = t.rng.Float64() < lowShare
		out[i].round = r
	}
	return out
}

// serveProc is a running cmd/serve.
type serveProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	w      *bufio.Writer
	r      *bufio.Reader
	errEnd chan struct{}
	stderr bytes.Buffer // what the server wrote to stderr, minus GC trace lines

	counting atomic.Bool  // GCs are counted while set
	gcs      atomic.Int64 // GCs counted
	gcPct    atomic.Int64 // the last GC's share of CPU since start, %
	heapOpen atomic.Bool  // heapPeak follows the GCs while set
	heapPeak atomic.Int64 // the largest heap at the start of a GC, MB
}

// startServe runs cmd/serve at its defaults (4 workers, 64-deep tenant
// queues, memo on) on one processor, reporting each GC on stderr: its GC
// trace is the only view of the server's heap.
func startServe(path string) (*serveProc, error) {
	p := &serveProc{cmd: exec.Command(path), errEnd: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=gctrace=1")
	var err error
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.w = bufio.NewWriter(p.stdin)
	p.r = bufio.NewReaderSize(stdout, 1<<16)
	go func() {
		defer close(p.errEnd)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				p.noteGC(line)
				continue
			}
			p.stderr.WriteString(line + "\n")
		}
	}()
	return p, nil
}

// noteGC reads one GC trace line:
//
//	gc 7 @0.412s 3%: 0.01+0.5+0 ms clock, ..., 21->23->11 MB, 22 MB goal, ...
//
// The share of CPU is cumulative; the first heap size is the heap when
// the GC started, the peak of its cycle.
func (p *serveProc) noteGC(line string) {
	if p.counting.Load() {
		p.gcs.Add(1)
	}
	f := strings.Fields(line)
	if len(f) > 3 {
		if v, err := strconv.Atoi(strings.TrimSuffix(f[3], "%:")); err == nil {
			p.gcPct.Store(int64(v))
		}
	}
	if !p.heapOpen.Load() {
		return
	}
	for i := 1; i < len(f); i++ {
		if f[i] != "MB," || !strings.Contains(f[i-1], "->") {
			continue
		}
		start, _, _ := strings.Cut(f[i-1], "->")
		if v, err := strconv.Atoi(start); err == nil && int64(v) > p.heapPeak.Load() {
			p.heapPeak.Store(int64(v))
		}
		return
	}
}

// stop closes the server's input, waits for it to exit and returns its
// CPU time.
func (p *serveProc) stop() (time.Duration, error) {
	werr := p.w.Flush()
	p.stdin.Close()
	_, _ = io.Copy(io.Discard, p.r)
	<-p.errEnd
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("cmd/serve: %v: %s", err, p.stderr.String())
	}
	if werr != nil {
		return 0, werr
	}
	return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime(), nil
}

// kill ends a server after an error.
func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill()
	p.stdin.Close()
	_, _ = io.Copy(io.Discard, p.r)
	<-p.errEnd
	_ = p.cmd.Wait()
}

// closedLoop keeps one request per client outstanding: a client sends
// its next request only after its answer arrives.
type closedLoop struct {
	p    *serveProc
	cur  [serveClients]serveReq
	seq  [serveClients]int
	sent [serveClients]time.Time
	line []byte
	n    int // requests answered
}

func (l *closedLoop) send(c int, q serveReq) error {
	l.seq[c]++
	l.cur[c] = q
	prio := "high"
	if q.low {
		prio = "low"
	}
	l.line = fmt.Appendf(l.line[:0], `{"v":1,"id":"%d.%d","tenant":%q,"priority":%q,%s}`+"\n",
		c, l.seq[c], tenantOf(c), prio, q.body)
	if _, err := l.p.w.Write(l.line); err != nil {
		return err
	}
	l.sent[c] = time.Now()
	return l.p.w.Flush()
}

// run sends the requests next yields until it yields no more, and
// passes each answer to done with its send and receive times.
func (l *closedLoop) run(next func() (serveReq, bool), done func(c int, q serveReq, r serveResp, sent, recv time.Time)) error {
	active := 0
	for c := 0; c < serveClients; c++ {
		q, ok := next()
		if !ok {
			break
		}
		if err := l.send(c, q); err != nil {
			return err
		}
		active++
	}
	for active > 0 {
		b, err := l.p.r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading cmd/serve's answers: %v", err)
		}
		recv := time.Now()
		var resp serveResp
		if err := json.Unmarshal(b, &resp); err != nil {
			return fmt.Errorf("cmd/serve answer %q: %v", b, err)
		}
		cs, seq, _ := strings.Cut(resp.ID, ".")
		c, err1 := strconv.Atoi(cs)
		s, err2 := strconv.Atoi(seq)
		if err1 != nil || err2 != nil || c < 0 || c >= serveClients || s != l.seq[c] {
			return fmt.Errorf("cmd/serve answered an unknown request id %q", resp.ID)
		}
		l.n++
		active--
		done(c, l.cur[c], resp, l.sent[c], recv)
		if q, ok := next(); ok {
			if err := l.send(c, q); err != nil {
				return err
			}
			active++
		}
	}
	return nil
}

// list yields the requests of a fixed list.
func list(qs []serveReq) func() (serveReq, bool) {
	i := 0
	return func() (serveReq, bool) {
		if i == len(qs) {
			return serveReq{}, false
		}
		i++
		return qs[i-1], true
	}
}

// memo holds the answers the fill recorded for each shape.
type memo struct {
	joins   [joinShapes]serveResp
	designs [designShapes]serveResp
}

// checkResp checks one answer against its planned kind and, for a memo
// hit, against the answer the fill recorded.
func checkResp(q serveReq, r serveResp, m *memo) error {
	if r.Status != "ok" {
		return fmt.Errorf("status %q: %s", r.Status, r.Error)
	}
	switch q.kind {
	case joinHit:
		w := m.joins[q.shape]
		if r.Cache != "hit" || r.Seconds != w.Seconds || r.Joules != w.Joules {
			return fmt.Errorf("join hit answered cache=%q seconds=%v joules=%v, the fill recorded seconds=%v joules=%v",
				r.Cache, r.Seconds, r.Joules, w.Seconds, w.Joules)
		}
	case joinMiss:
		if r.Cache != "miss" || !(r.Seconds > 0) || !(r.Joules > 0) {
			return fmt.Errorf("join miss answered cache=%q seconds=%v joules=%v", r.Cache, r.Seconds, r.Joules)
		}
	case designHit:
		w := m.designs[q.shape]
		if r.Design != w.Design || r.Seconds != w.Seconds || r.Joules != w.Joules {
			return fmt.Errorf("design hit answered %q/%v/%v, the fill recorded %q/%v/%v",
				r.Design, r.Seconds, r.Joules, w.Design, w.Seconds, w.Joules)
		}
	case designMiss:
		if r.Design == "" || !(r.Seconds > 0) {
			return fmt.Errorf("design miss answered design=%q seconds=%v", r.Design, r.Seconds)
		}
	}
	return nil
}

// setupServe starts a server, fills its memo with every shape and warms
// the hit path.
func setupServe(o options, t *serveTrace, f *failures) (*serveProc, *closedLoop, *memo, error) {
	p, err := startServe(o.servePath)
	if err != nil {
		return nil, nil, nil, err
	}
	l := &closedLoop{p: p}
	m := &memo{}
	err = l.run(list(t.fill()), func(_ int, q serveReq, r serveResp, _, _ time.Time) {
		err := checkResp(q, r, m)
		if q.kind == joinMiss {
			m.joins[q.shape] = r
		} else {
			m.designs[q.shape] = r
		}
		f.note(err, func() string { return "serve-mix memo fill" })
	})
	if err == nil {
		err = l.run(list(t.hits(warmRequests)), func(_ int, q serveReq, r serveResp, _, _ time.Time) {
			f.note(checkResp(q, r, m), func() string { return "serve-mix warm-up" })
		})
	}
	if err != nil {
		p.kill()
		return nil, nil, nil, err
	}
	return p, l, m, nil
}

// serveLayers accumulates the traced requests' per-layer figures.
type serveLayers struct {
	ioUs, queueUs          []float64
	latByKind              [4][]float64
	joinHits, joinMisses   int
	shed, deadline, served int
}

func runServe(o options) (Result, error) {
	var f failures
	var setups []float64
	var p *serveProc
	var l *closedLoop
	var m *memo
	var t *serveTrace
	for rep := 0; rep < setupReps; rep++ {
		if p != nil {
			if _, err := p.stop(); err != nil {
				return Result{}, err
			}
		}
		start := time.Now()
		t = newServeTrace(o.seed)
		var err error
		if p, l, m, err = setupServe(o, t, &f); err != nil {
			return Result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var lats [][]float64
	var sl serveLayers
	tr := newTracer(time.Now())
	var roundStart []time.Time
	var cur []serveReq
	next := 0
	start := time.Now()
	gen := func() (serveReq, bool) {
		if next == len(cur) {
			r := len(roundStart)
			if r == serveHeapRounds {
				p.heapOpen.Store(false)
			}
			if r >= serveHeapRounds && time.Since(start).Seconds() >= o.seconds && (!o.trace || r%2 == 0) {
				return serveReq{}, false
			}
			cur, next = t.round(r), 0
			roundStart = append(roundStart, time.Now())
			lats = append(lats, make([]float64, 0, serveRound))
		}
		next++
		return cur[next-1], true
	}
	timed0 := l.n
	p.counting.Store(true)
	p.heapOpen.Store(true)
	var last time.Time
	opID := 0
	err := l.run(gen, func(_ int, q serveReq, r serveResp, sent, recv time.Time) {
		last = recv
		d := recv.Sub(sent)
		lats[q.round] = append(lats[q.round], float64(d.Nanoseconds())/1e6)
		f.note(checkResp(q, r, m), func() string { return fmt.Sprintf("serve-mix %s request %s", kindNames[q.kind], r.ID) })
		switch r.Status {
		case "shed":
			sl.shed++
		case "deadline":
			sl.deadline++
		}
		if !o.trace || q.round%2 == 0 {
			return
		}
		opID++
		sl.served++
		io := d.Seconds() - r.WallSeconds
		sl.ioUs = append(sl.ioUs, io*1e6)
		sl.queueUs = append(sl.queueUs, r.QueueSeconds*1e6)
		sl.latByKind[q.kind] = append(sl.latByKind[q.kind], d.Seconds())
		switch r.Cache {
		case "hit":
			sl.joinHits++
		case "miss":
			sl.joinMisses++
		}
		// The server's own interval is placed inside the client's, with
		// the pipe and codec time split evenly on both sides.
		root := tr.add("serve.request", 0, opID, sent, recv, kindNames[q.kind])
		ws := sent.Add(time.Duration(io / 2 * 1e9))
		wall := tr.add("service.wall", root, opID, ws, ws.Add(time.Duration(r.WallSeconds*1e9)), "")
		qe := ws.Add(time.Duration(r.QueueSeconds * 1e9))
		tr.add("service.queue", wall, opID, ws, qe, "")
		tr.add("service.run", wall, opID, qe, ws.Add(time.Duration(r.WallSeconds*1e9)), r.Cache)
	})
	p.counting.Store(false)
	timedN := l.n - timed0
	if err != nil {
		p.kill()
		return Result{}, err
	}
	cpu, err := p.stop()
	if err != nil {
		return Result{}, err
	}

	// Each round is timed from its first request to the next round's.
	var durs []float64
	var opsBy [2]int
	var durBy [2]float64
	for r, rs := range roundStart {
		end := last
		if r+1 < len(roundStart) {
			end = roundStart[r+1]
		}
		d := end.Sub(rs).Seconds()
		durs = append(durs, d)
		opsBy[r%2] += serveRound
		durBy[r%2] += d
	}

	res := Result{Correct: f.failed == 0, Attempted: f.attempted, Failed: f.failed}
	if !o.trace {
		lat := fasterHalf(durs, lats)
		res.Metrics = map[string]Metric{
			"setup_s":      {median(setups), "s"},
			"ops_per_s":    {serveRound / pct(durs, 25), "1/s"},
			"p50_ms":       {median(lat), "ms"},
			"tail_ms":      {pct(lat, tailPct[serveMix]), "ms"},
			"peak_heap_mb": {float64(p.heapPeak.Load()), "MB"},
		}
		return res, nil
	}

	// Per-layer figures from the traced (odd) rounds.
	vals := map[string]float64{
		"service.io_us":          median(sl.ioUs),
		"service.cpu_us_per_req": cpu.Seconds() * 1e6 / float64(l.n),
		"service.queue_us_p50":   median(sl.queueUs),
		"service.queue_us_tail":  pct(sl.queueUs, tailPct[serveMix]),
		"service.join_hit_us":    median(sl.latByKind[joinHit]) * 1e6,
		"service.join_miss_ms":   median(sl.latByKind[joinMiss]) * 1e3,
		"service.design_hit_us":  median(sl.latByKind[designHit]) * 1e6,
		"service.design_miss_us": median(sl.latByKind[designMiss]) * 1e6,
		"service.shed":           float64(sl.shed),
		"service.deadline":       float64(sl.deadline),
		"runtime.gc_per_op":      float64(p.gcs.Load()) / float64(timedN),
		"runtime.gc_cpu_pct":     float64(p.gcPct.Load()),
	}
	if n := sl.joinHits + sl.joinMisses; n > 0 {
		vals["service.memo_hit_ratio"] = float64(sl.joinHits) / float64(n)
	}
	overhead(vals, opsBy[1], opsBy[0], durBy[1], durBy[0])
	res.Metrics = layerMetrics(vals)
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", serveMix, o.seed))
	err = writeTrace(path, traceFile{
		Workload: serveMix, Seed: o.seed, Spans: tr.spans, DroppedSpans: tr.dropped,
		Counts: map[string]int64{
			"requests": int64(sl.served), "join_hits": int64(sl.joinHits), "join_misses": int64(sl.joinMisses),
			"shed": int64(sl.shed), "deadline": int64(sl.deadline), "cmd_serve_gcs": p.gcs.Load(),
			"cmd_serve_cpu_us": cpu.Microseconds(), "cmd_serve_requests": int64(l.n),
		},
		Metrics: res.Metrics,
	})
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return res, nil
}
