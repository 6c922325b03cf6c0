package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

const (
	// serveRequests and serveSmokeRequests are the script lengths of one
	// full and one smoke repetition.
	serveRequests      = 1200
	serveSmokeRequests = 40
	// serveClients closed-loop clients replay the script: each sends its
	// next request only after the previous reply, as simd's callers do.
	serveClients = 2
	// serveWorkers is simd's simulation pool (-jobs).
	serveWorkers = 2
	// fixtureSeed and fixtureCount fix the synth part of the preloaded
	// surface.
	fixtureSeed  = 424242
	fixtureCount = 16
)

// serveQueries are the /v1/query filters a script draws from. None
// names a point a batch can add that the fixture does not already hold
// with identical values, so answers do not depend on request order.
var serveQueries = []string{
	"by=cycles&top=5",
	"by=cpi&top=20",
	"bench=towers&by=cycles&top=10",
	"bench=assem&waits=2",
	"config=D16/16/2&waits=1&by=cpi&top=10",
	"config=DLXe/32/3&bus=8&by=cycles&top=15",
	"isa=d16&bus=4&waits=0&by=instrs&top=25",
	"isa=dlxe&waits=3&by=cycles&top=40",
	"bus=8&waits=3&by=cpi&top=50",
	"bench=queens&by=cpi&top=3",
}

// serveExplains are the /v1/explain drill-downs a script draws from.
var serveExplains = []string{
	"a=D16/16/2&b=DLXe/32/3&bench=towers&waits=1&top=1&rows=6",
	"a=D16/16/2&b=DLXe/32/3&bench=queens&waits=2&top=1&rows=4",
}

// request is one scripted request.
type request struct {
	Kind  string   `json:"kind"`            // batch, static, query or explain
	Keys  []string `json:"keys,omitempty"`  // batch: "bench|config" per point
	Query string   `json:"query,omitempty"` // static, query, explain: URL query
}

// pointKeys lists the 15×5 bench×config measurement keys.
func pointKeys() []string {
	var keys []string
	for _, b := range core.Suite() {
		for _, cfg := range core.Configs() {
			keys = append(keys, b.Name+"|"+cfg.Name)
		}
	}
	return keys
}

// The serve mix is an assumption, not measured traffic: no record of
// real simd traffic exists. Batches dominate because measurement points
// are simd's main work; the other kinds are kept frequent enough that
// each endpoint has a per-endpoint median (simd.*_p50_ms) to read a
// claim against. NOTES.md says what the mix does and does not support.
const (
	explainPct, staticPct, queryPct = 1, 8, 11 // per cent of requests; batches get the rest
	maxBatchPoints                  = 4        // points per batch: uniform in 1..maxBatchPoints
	zipfExponent                    = 1.1      // skew of batch key popularity
)

// serveScript generates the request script of one seed. Its mix is
// fixed (the constants above), and statics, queries and explains cycle
// through their menus, so seeds differ in order and in which keys are
// hot, not in how much of each kind of work a run does. Batch keys
// follow a Zipf-like popularity over a seed-permuted key order, so the
// result cache sees hot keys beside first-touch misses.
func serveScript(seed uint64, n int) []request {
	rng := synth.NewRNG(synth.DeriveSeed(seed, "serve", 0))
	shuffle := func(n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	keys := pointKeys()
	shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	pick := zipf(len(keys), zipfExponent)
	out := make([]request, n)
	explains, statics, queries := n*explainPct/100, n*staticPct/100, n*queryPct/100
	for i := range out {
		switch j := i; {
		case j < explains:
			out[i] = request{Kind: "explain", Query: serveExplains[j%len(serveExplains)]}
		case j-explains < statics:
			out[i] = staticRequest(keys[(j-explains)%len(keys)])
		case j-explains-statics < queries:
			out[i] = request{Kind: "query", Query: serveQueries[(j-explains-statics)%len(serveQueries)]}
		default:
			r := request{Kind: "batch"}
			for k := 1 + rng.Intn(maxBatchPoints); k > 0; k-- {
				r.Keys = append(r.Keys, keys[pick(float64(rng.Intn(1<<24))/(1<<24))])
			}
			out[i] = r
		}
	}
	shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func staticRequest(key string) request {
	b, cfg, _ := strings.Cut(key, "|")
	return request{Kind: "static", Query: url.Values{"bench": {b}, "config": {cfg}}.Encode()}
}

// serveMenu lists every non-batch request a script can contain.
func serveMenu() []request {
	var out []request
	for _, k := range pointKeys() {
		out = append(out, staticRequest(k))
	}
	for _, q := range serveQueries {
		out = append(out, request{Kind: "query", Query: q})
	}
	for _, q := range serveExplains {
		out = append(out, request{Kind: "explain", Query: q})
	}
	return out
}

// zipf returns a picker mapping a uniform u in [0,1) to a rank in
// [0,n) with probability proportional to 1/(rank+1)^s.
func zipf(n int, s float64) func(u float64) int {
	cum := make([]float64, n)
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return func(u float64) int {
		x := u * total
		for i, c := range cum {
			if x < c {
				return i
			}
		}
		return n - 1
	}
}

// buildFixture writes the preloaded surface: every bench×config
// measurement's cacheless points (so batches only re-add points the
// surface already holds) plus a synth sweep's surface.
func buildFixture(path string) error {
	lab := core.NewParallelLab(serveWorkers)
	defer lab.Scheduler().Shutdown(context.Background()) //nolint:errcheck // nothing queued
	var pts []store.Point
	for _, b := range core.Suite() {
		for _, cfg := range core.Configs() {
			m, err := lab.Measure(b, cfg)
			if err != nil {
				return err
			}
			pts = append(pts, m.Points()...)
		}
	}
	spec := sweep.Defaults()
	spec.Seed, spec.Count = fixtureSeed, fixtureCount
	tmp := path + ".sweep"
	defer os.Remove(tmp)
	sum, err := (&sweep.Runner{Lab: lab}).Run(spec, tmp)
	if err != nil {
		return err
	}
	if len(sum.Failures) > 0 {
		return fmt.Errorf("fixture sweep: %d programs failed", len(sum.Failures))
	}
	sp, err := store.ReadFile(tmp)
	if err != nil {
		return err
	}
	return store.WriteFile(path, store.Canon(append(pts, sp...)))
}

// simdProc is one running simd.
type simdProc struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	done chan error
}

// startSimd spawns simd on a free loopback port with storePath
// preloaded and returns once /healthz answers 200; setup is the time
// from spawn to that answer. The port is probed free before simd binds
// it, so another process can take it in between: a failed start is
// retried twice.
func startSimd(bin, storePath string) (p *simdProc, setup float64, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if p, setup, err = startSimdOnce(bin, storePath); err == nil {
			return p, setup, nil
		}
	}
	return nil, 0, err
}

func startSimdOnce(bin, storePath string) (p *simdProc, setup float64, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p = &simdProc{base: "http://" + addr, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-listen", addr, "-jobs", strconv.Itoa(serveWorkers), "-quiet", "-store", storePath)
	p.cmd.Stdout = &p.logs
	p.cmd.Stderr = &p.logs
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { p.done <- p.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 20*time.Second {
		select {
		case err := <-p.done:
			p.done <- err
			return nil, 0, fmt.Errorf("simd exited during start-up: %v\n%s", err, p.logs.String())
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	p.stop()
	return nil, 0, errors.New("simd did not become healthy within 20 s")
}

// stop shuts simd down gracefully (SIGTERM drains it) and waits for it
// to exit, killing it if it has not within 20 s.
func (p *simdProc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // best effort
		<-p.done
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// serveEnv is what every serve repetition needs.
type serveEnv struct {
	simd    string // simd binary
	fixture string // preloaded surface, written once per checkout
	tmp     string
	script  []request
	ref     *serveRef
	check   op // the preloaded surface against its reference digest
}

// copyFixture gives one simd its own copy of the preloaded surface
// (simd appends new measurements to its store file).
func (e *serveEnv) copyFixture() (string, error) {
	b, err := os.ReadFile(e.fixture)
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.tmp, "serve.mcst")
	return path, os.WriteFile(path, b, 0o644)
}

// serveSetup boots one simd on the fixture and stops it: one set-up
// sample.
func serveSetup(e *serveEnv) (float64, error) {
	path, err := e.copyFixture()
	if err != nil {
		return 0, err
	}
	p, setup, err := startSimd(e.simd, path)
	p.stop()
	return setup, err
}

// serveRep runs the script once against a fresh simd, checking every
// reply. A traced rep records a span per request (two lanes, one per
// client) and charges the interval to simd and other.
func serveRep(e *serveEnv, traced bool) (*repResult, float64, error) {
	path, err := e.copyFixture()
	if err != nil {
		return nil, 0, err
	}
	p, setup, err := startSimd(e.simd, path)
	if err != nil {
		return nil, 0, err
	}
	defer p.stop()
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.NewTracer()
	}
	hc := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()
	res := &repResult{Ops: make([]op, len(e.script)), Checks: []op{e.check}}
	statuses := make([]int, len(e.script))
	pid := p.cmd.Process.Pid
	cpu0 := procCPUSeconds(pid)
	t0 := time.Now()
	root := tr.Start("bench.serve", telemetry.String("sid", "0"))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(e.script); i += serveClients {
				r := e.script[i]
				sp := tr.Start("bench.request", telemetry.String("sid", "r"+strconv.Itoa(i)),
					telemetry.String("parent", "0"), telemetry.String("lane", strconv.Itoa(c+1)),
					telemetry.String("kind", r.Kind))
				s := time.Now()
				status, rid, why := e.do(hc, p.base, r)
				lat := time.Since(s).Seconds()
				sp.Annotate("request_id", rid)
				sp.End()
				statuses[i] = status
				res.Ops[i] = op{Name: r.Kind, Lat: lat, OK: why == "", Why: why}
			}
		}(c)
	}
	wg.Wait()
	root.End()
	res.Wall = time.Since(t0).Seconds()
	res.CPU = procCPUSeconds(pid) - cpu0
	res.RSS = peakRSSMiB(strconv.Itoa(pid))
	if !traced {
		return res, setup, nil
	}
	res.Counts, err = scrapeMetrics(hc, p.base)
	if err != nil {
		return nil, 0, err
	}
	serveLayers(res, tr, statuses)
	return res, setup, nil
}

// do sends one request and checks its reply against the reference.
func (e *serveEnv) do(hc *http.Client, base string, r request) (status int, rid, why string) {
	var resp *http.Response
	var err error
	if r.Kind == "batch" {
		resp, err = hc.Post(base+"/v1/batch", "application/json", bytes.NewReader(batchBody(r.Keys)))
	} else {
		resp, err = hc.Get(base + "/v1/" + r.Kind + "?" + r.Query)
	}
	if err != nil {
		return 0, "", err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rid = resp.Header.Get("X-Request-Id")
	if err != nil {
		return resp.StatusCode, rid, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, rid, fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
	}
	var got, want []string
	switch r.Kind {
	case "batch":
		got, err = batchDigests(body)
		for _, k := range r.Keys {
			want = append(want, e.ref.Batch[k])
		}
	case "static":
		got, want = []string{digest(body)}, []string{e.ref.Static[r.Query]}
	case "query":
		got, want = []string{digest(body)}, []string{e.ref.Query[r.Query]}
	case "explain":
		got, want = []string{digest(body)}, []string{e.ref.Explain[r.Query]}
	}
	if err != nil {
		return resp.StatusCode, rid, err.Error()
	}
	if len(got) != len(want) {
		return resp.StatusCode, rid, fmt.Sprintf("%d results for %d points", len(got), len(want))
	}
	for i := range got {
		if want[i] == "" || got[i] != want[i] {
			return resp.StatusCode, rid, fmt.Sprintf("%s %s%s: body differs from the reference", r.Kind, r.Query, strings.Join(r.Keys, ","))
		}
	}
	return resp.StatusCode, rid, ""
}

func batchBody(keys []string) []byte {
	type point struct {
		Bench  string `json:"bench"`
		Config string `json:"config"`
	}
	var req struct {
		Points []point `json:"points"`
	}
	for _, k := range keys {
		b, cfg, _ := strings.Cut(k, "|")
		req.Points = append(req.Points, point{b, cfg})
	}
	out, _ := json.Marshal(req) // plain strings: cannot fail
	return out
}

// batchDigests digests each result element of a /v1/batch reply in its
// compact form (the element's bytes do not depend on its batch-mates).
func batchDigests(body []byte) ([]string, error) {
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("batch reply: %w", err)
	}
	var out []string
	for _, r := range resp.Results {
		var b bytes.Buffer
		if err := json.Compact(&b, r); err != nil {
			return nil, err
		}
		out = append(out, digest(b.Bytes()))
	}
	return out, nil
}

// scrapeMetrics reads the scheduler figures off simd's /metrics.
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	prom := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				prom[f[0]] = v
			}
		}
	}
	counts := map[string]float64{
		"jobs.submitted":         prom["jobs_submitted"],
		"jobs.coalesced":         prom["jobs_coalesced"],
		"jobs.queue_wait_p50_ms": prom["jobs_queue_wait_us_p50"] / 1e3,
	}
	if n := prom["jobs_cache_hits"] + prom["jobs_cache_misses"]; n > 0 {
		counts["jobs.cache_hit_ratio"] = prom["jobs_cache_hits"] / n
	}
	return counts, nil
}

// serveLayers charges a traced serve rep: request spans to simd, the
// rest of the interval to other, plus per-endpoint medians and counts.
func serveLayers(res *repResult, tr *telemetry.Tracer, statuses []int) {
	spans := buildSpans(tr.Events(), false)
	w0, w1 := rootWindow(spans)
	res.Layers = map[string]float64{"traced_wall_s": w1 - w0}
	res.Layers["other_s"] += attribute(spans, w0, w1)
	for _, s := range spans {
		res.Layers[layerOfSpan(s, spans)] += s.share
	}
	lats := map[string][]float64{}
	for _, o := range res.Ops {
		lats[o.Name] = append(lats[o.Name], o.Lat*1e3)
	}
	for _, kind := range []string{"batch", "static", "query", "explain"} {
		res.Counts["simd."+kind+"_p50_ms"] = rankPct(lats[kind], 50).Value
		res.Counts["simd."+kind+"_count"] = float64(len(lats[kind]))
	}
	for _, st := range statuses {
		if st >= 500 {
			res.Counts["simd.http_5xx"]++
		}
	}
}

// storeLoad times what simd's -store load does with the fixture: read
// every block and canonicalize (the median of three).
func storeLoad(path string) (secs float64, points int, bytes int64, err error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pts, err := store.ReadFile(path)
		if err != nil {
			return 0, 0, 0, err
		}
		points = len(store.Canon(pts))
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), points, st.Size(), nil
}
