package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The adserver workload serves one in-process adserver.Server, behind
// Handler(DefaultOptions()), over cmd/adserver's default small-scale
// bootstrap. Load comes from this process over loopback, with one
// connection per CPU: first a closed loop over a fixed request set
// (wall_s, rps), then an open loop at openRate requests per second
// (p50_ms, p99_ms), each request timed from the moment it was due.
const (
	// closedPerSecond sizes the closed loop: seconds × closedPerSecond
	// requests, about two thirds of the run budget on the reference host.
	// The open loop takes the last third, in seconds/3 bursts.
	closedPerSecond = 10000
	// openRate is the open loop's offered load. It is a choice, not a
	// measured rate: about 6% of the closed loop's 16k req/s on a 2-vCPU
	// host, so latency is measured far from saturation and the one-second
	// bursts hold enough requests (~1000) for a per-burst p99.
	openRate = 1000
	// warmupPerConn requests per connection run before timing.
	warmupPerConn = 200
	// sampleEvery picks the open-loop responses compared byte for byte
	// with the same URL served in process.
	sampleEvery = 25
	// serverRecoverRepeats is how many times the server's recovery is
	// timed (the median counts): one takes about 0.4 s, too short to
	// smooth over a noisy host with three.
	serverRecoverRepeats = 9
)

// The request mix has one class of each loadgen kind. The simulator's
// own query stream has neither uniformly drawn keywords nor junk text,
// so nothing in the repository measures the tail and nomatch shares:
// they are assumed, at the shares loadgen's class tests use.
const (
	tailShare    = 0.2
	nomatchShare = 0.1
	// mixDraws is how many queries of the simulator's stream are drawn
	// to measure its query forms.
	mixDraws = 100000
	mixSalt  = 0x6d1c
)

// trafficMix returns the request classes. Head and extended split the
// share left after tail and nomatch in the ratio of bare to non-bare
// queries in a queries.Generator stream, the simulator's own traffic
// (about 60:40). Both non-bare forms, extended and reordered, take the
// adserver's token scan; loadgen renders the in-order extended shape.
func trafficMix(seed uint64) []loadgen.Class {
	gen := queries.NewGenerator(stats.NewRNG(seed ^ mixSalt))
	bare := 0
	for i := 0; i < mixDraws; i++ {
		if gen.Next().Form == platform.FormBare {
			bare++
		}
	}
	rest, b := 1-tailShare-nomatchShare, float64(bare)/mixDraws
	return []loadgen.Class{
		{Name: "head", Weight: rest * b, Kind: "head"},
		{Name: "extended", Weight: rest * (1 - b), Kind: "extended"},
		{Name: "tail", Weight: tailShare, Kind: "tail"},
		{Name: "nomatch", Weight: nomatchShare, Kind: "nomatch"},
	}
}

// printMix names the measured request mix on standard error.
func printMix(mix []loadgen.Class) {
	fmt.Fprint(os.Stderr, "perfbench: request mix")
	for _, c := range mix {
		fmt.Fprintf(os.Stderr, " %s %.3f", c.Name, c.Weight)
	}
	fmt.Fprintln(os.Stderr)
}

// bootSeed is cmd/adserver's default -seed. The platform the server
// serves is that default bootstrap on every run; the benchmark seed
// draws the traffic. A seeded bootstrap at small scale varies the
// population enough to move latency by tens of percent between seeds,
// which would bury any change to the serving path.
const bootSeed = 42

// bootConfig is cmd/adserver's default bootstrap: small scale with full
// ad copy.
func bootConfig() sim.Config {
	cfg := sim.SmallConfig()
	cfg.Seed = bootSeed
	cfg.FullCreatives = true
	return cfg
}

// liveServer is one bootstrapped adserver listening on loopback.
type liveServer struct {
	gen *queries.Generator
	srv *adserver.Server
	// handler is the serving stack, without the trace wrapper.
	handler http.Handler
	hs      *http.Server
	base    string
	done    chan error
	// tr, when set, receives a span around every request the handler
	// serves (traced invocations only).
	tr atomic.Pointer[tracer]
}

// startServer bootstraps the platform, builds the server and starts its
// listener, as cmd/adserver does. Its duration is the workload's set-up
// time. The server keeps only the platform and query generator; the
// bootstrap sim is returned for callers that checkpoint it.
func startServer(traceable bool) (*liveServer, *sim.Sim, time.Duration, error) {
	t0 := time.Now()
	boot := sim.New(bootConfig())
	boot.Run()
	ls := &liveServer{gen: boot.Queries(), done: make(chan error, 1)}
	ls.srv = adserver.New(boot.Platform(), boot.Queries(), auction.DefaultConfig(), bootSeed)
	ls.handler = ls.srv.Handler(adserver.DefaultOptions())
	h := ls.handler
	if traceable {
		h = ls.traceHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.hs = &http.Server{Handler: h}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, boot, time.Since(t0), nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (ls *liveServer) stop() error {
	err := ls.hs.Close()
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// traceHandler wraps h with an "adserver.handler" span carrying the
// request's benchmark ID.
func (ls *liveServer) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := ls.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		sp := tr.begin("adserver.handler", id, -1)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// idHeader carries a request's span ID from the client to the handler.
const idHeader = "X-Bench-Id"

// searchPath renders one generated request as a /search URL path.
func searchPath(rq loadgen.Request) string {
	return "/search?q=" + url.QueryEscape(rq.Query) + "&country=" + url.QueryEscape(string(rq.Country))
}

// client is one sender with its own single connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: t}
}

// get fetches base+path and returns the status and body.
func (c *client) get(base, path string, id int64, traced bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if traced {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// reply is what the benchmark keeps of one response.
type reply struct {
	ok      bool // 200 with a body that decodes
	nomatch bool
	ads     int
}

func decodeReply(status int, body []byte, err error) reply {
	if err != nil || status != http.StatusOK {
		return reply{}
	}
	var sr adserver.SearchResponse
	if json.Unmarshal(body, &sr) != nil {
		return reply{}
	}
	return reply{ok: true, nomatch: sr.Vertical == "", ads: len(sr.Ads)}
}

// loadPass is one closed loop followed by one open loop. Only the closed
// loop counts toward wall_s: the open loop's length is fixed by its
// schedule, not by the server.
type loadPass struct {
	closedN     int
	closed      time.Duration
	closedPaths []string
	rps         float64 // median closed-loop chunk rate
	openReqs    []loadgen.Request
	lat         []float64 // due → response read, ns
	late        []float64 // due → sent, ns
	svc         []float64 // sent → response read, ns
	replies     []reply   // open loop
	samples     map[string][]byte
	idBase      int64
	burstGCs    uint64 // collections that completed inside a burst
}

// closedChunks splits the closed loop into runs of equal size; rps is the
// median of their rates, so a brief stall on a shared host moves one
// chunk rather than the result.
const closedChunks = 15

// closedRates runs paths in closedChunks consecutive closed loops and
// returns the total time and the median rate.
func closedRates(base string, paths []string, conns []*client, idBase int64, traced bool, o *outcome) (time.Duration, float64) {
	var total time.Duration
	rates := make([]float64, 0, closedChunks)
	for c := 0; c < closedChunks; c++ {
		lo, hi := c*len(paths)/closedChunks, (c+1)*len(paths)/closedChunks
		d := closedLoop(base, paths[lo:hi], conns, idBase+int64(lo), traced, o)
		total += d
		rates = append(rates, float64(hi-lo)/d.Seconds())
	}
	return total, median(rates)
}

// closedLoop sends paths over conns connections, each sending its next
// request when the previous one completes, until all are done.
func closedLoop(base string, paths []string, conns []*client, idBase int64, traced bool, o *outcome) time.Duration {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(paths)) {
					return
				}
				if !decodeReply(c.get(base, paths[i], idBase+i, traced)).ok {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	o.attempted += int64(len(paths))
	o.failed += failed.Load()
	return d
}

// openLoop sends the open-loop requests in one-second bursts, each on
// its schedule and each started right after a forced collection. The
// polling senders hold both CPUs between requests, so a collection
// running inside a burst would wait for them, and the requests due
// meanwhile would run up to 10 ms late: an artefact of generating load
// in the server's process, not a cost the server's clients see. One burst allocates far
// less than the heap's headroom after a collection; loadgen.burst_gcs
// counts the collections that still completed inside a burst. The closed
// loop runs with collections where they fall, so rps carries their cost.
func openLoop(base string, paths []string, conns []*client, p *loadPass, tr *tracer, o *outcome) {
	n := len(p.openReqs)
	p.lat, p.late, p.svc = make([]float64, n), make([]float64, n), make([]float64, n)
	p.replies = make([]reply, n)
	bodies := make([][]byte, n)
	for lo := 0; lo < n; {
		burst := p.openReqs[lo].Offset.Truncate(time.Second)
		hi := lo
		for hi < n && p.openReqs[hi].Offset < burst+time.Second {
			hi++
		}
		runtime.GC()
		g0 := gcCycles()
		openBurst(base, paths, conns, p, bodies, lo, hi, burst, tr)
		p.burstGCs += gcCycles() - g0
		lo = hi
	}
	p.samples = map[string][]byte{}
	for i, b := range bodies {
		if b != nil {
			p.samples[paths[i]] = b
		}
	}
	for _, r := range p.replies {
		o.check(r.ok)
	}
}

// openBurst sends requests lo..hi-1, request i by connection
// i mod len(conns), each at its offset past burst. Each connection sends
// synchronously, so a slow response delays that connection's later
// requests; timing every request from its due time charges that wait to
// the requests that suffered it, and late records how far behind the
// sender ran.
func openBurst(base string, paths []string, conns []*client, p *loadPass, bodies [][]byte, lo, hi int, burst time.Duration, tr *tracer) {
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for i := lo + w; i < hi; i += len(conns) {
				due := start.Add(p.openReqs[i].Offset - burst)
				waitUntil(due)
				sent := time.Now()
				status, body, err := c.get(base, paths[i], p.idBase+int64(i), tr != nil)
				done := time.Now()
				p.lat[i] = float64(done.Sub(due))
				p.late[i] = float64(sent.Sub(due))
				p.svc[i] = float64(done.Sub(sent))
				p.replies[i] = decodeReply(status, body, err)
				if i%sampleEvery == 0 {
					bodies[i] = body
				}
				tr.record("loadgen.request", p.idBase+int64(i), -1, sent, done)
			}
		}(w, c)
	}
	wg.Wait()
}

// pacerSpin is how close to a due time a sender stops sleeping and
// polls the clock instead. Timer wake-ups on small virtual machines can
// land milliseconds late (an idle loop of 0.5 ms sleeps measured p99
// 3.5–7 ms late on a 2-vCPU VM), which would make the generator's own
// lateness the open loop's tail. A polling sender holds its CPU only
// between requests: while its request is in flight it is parked, and
// the server runs there.
const pacerSpin = 10 * time.Millisecond

// waitUntil returns at t, sleeping only while t is more than pacerSpin
// away.
func waitUntil(t time.Time) {
	if d := time.Until(t) - pacerSpin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// runLoad runs the closed loop and then the open loop against ls, with
// requests of the classes in mix.
func runLoad(ls *liveServer, rc runConfig, mix []loadgen.Class, tr *tracer, pass int, o *outcome) *loadPass {
	openSpan := time.Duration(max(rc.seconds/3, 1)) * time.Second
	gen := ls.gen
	conns := make([]*client, runtime.NumCPU())
	for i := range conns {
		conns[i] = newClient()
	}
	defer func() {
		for _, c := range conns {
			c.tr.CloseIdleConnections()
		}
	}()

	p := &loadPass{closedN: closedPerSecond * rc.seconds, idBase: int64(pass) << 40}
	warm := loadgen.BuildRequests(gen, mix, make([]time.Duration, warmupPerConn*len(conns)), rc.seed^0x77)
	closedReqs := loadgen.BuildRequests(gen, mix, make([]time.Duration, p.closedN), rc.seed^0xc1)
	sched := loadgen.Schedule(loadgen.Poisson{Rate: openRate}, rc.seed^0x5c, openSpan, 0)
	p.openReqs = loadgen.BuildRequests(gen, mix, sched, rc.seed^0x0e)
	warmPaths, openPaths := pathsOf(warm), pathsOf(p.openReqs)
	p.closedPaths = pathsOf(closedReqs)

	closedLoop(ls.base, warmPaths, conns, p.idBase|1<<39, false, o)
	ls.tr.Store(tr)
	defer ls.tr.Store(nil)
	runtime.GC()
	p.closed, p.rps = closedRates(ls.base, p.closedPaths, conns, p.idBase|1<<38, tr != nil, o)
	openLoop(ls.base, openPaths, conns, p, tr, o)
	return p
}

func pathsOf(reqs []loadgen.Request) []string {
	out := make([]string, len(reqs))
	for i, rq := range reqs {
		out[i] = searchPath(rq)
	}
	return out
}

// openLatencyMS is the open loop's median latency and the median over
// its one-second bursts of each burst's p99, in ms.
func (p *loadPass) openLatencyMS() (p50, p99 float64) {
	byWindow := map[int64][]float64{}
	for i, rq := range p.openReqs {
		w := int64(rq.Offset / time.Second)
		byWindow[w] = append(byWindow[w], p.lat[i])
	}
	var tails []float64
	for _, xs := range byWindow {
		if len(xs) >= 100 {
			tails = append(tails, quantile(xs, 0.99))
		}
	}
	return median(p.lat) / 1e6, median(tails) / 1e6
}

// compareInProcess checks each sampled HTTP body against the same URL
// served in process through Server.ServeHTTP.
func compareInProcess(srv *adserver.Server, samples map[string][]byte, o *outcome) {
	bad := 0
	for path, body := range samples {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if !o.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), body)) {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d sampled bodies differ from in-process responses\n", bad, len(samples))
	}
}

// recoverServer times bringing the adserver back from the bootstrap
// checkpoint instead of re-simulating: sim.Lineage.Load + sim.Restore +
// adserver.New. The recovered server must answer the sampled URLs with
// the live server's bytes.
func recoverServer(lin sim.Lineage, samples map[string][]byte, o *outcome) time.Duration {
	return medianRuns(serverRecoverRepeats, func(i int) time.Duration {
		t0 := time.Now()
		rs, _, err := loadLineage(lin, nil)
		if !o.check(err == nil) {
			fmt.Fprintf(os.Stderr, "perfbench: recover: %v\n", err)
			return time.Since(t0)
		}
		srv := adserver.New(rs.Platform(), rs.Queries(), auction.DefaultConfig(), bootSeed)
		d := time.Since(t0)
		if i == 0 {
			compareInProcess(srv, samples, o)
		}
		return d
	})
}

func runAdserver(rc runConfig) (*outcome, error) {
	if rc.traced {
		return traceAdserver(rc)
	}
	o := &outcome{e2e: map[string]float64{}}
	ls, _, setup, err := startServer(false)
	if err != nil {
		return nil, err
	}
	mix := trafficMix(rc.seed)
	printMix(mix)
	p := runLoad(ls, rc, mix, nil, 0, o)
	m := o.e2e
	m["peak_rss_mb"] = peakRSSMB()
	m["wall_s"] = p.closed.Seconds()
	m["rps"] = p.rps
	o.latency = map[string]float64{}
	o.latency["p50_ms"], o.latency["p99_ms"] = p.openLatencyMS()
	compareInProcess(ls.srv, p.samples, o)
	if err := ls.stop(); err != nil {
		return nil, err
	}

	// The extra set-ups run after the peak-RSS reading; the second one
	// also checkpoints its bootstrap, which is the live server's state
	// (the bootstrap is seeded the same on every set-up).
	lin := sim.Lineage{Path: filepath.Join(rc.dir, "boot.ckpt")}
	var setupErr error
	m["setup_s"] = repeatSetup(setup, func() time.Duration {
		ls, boot, d, err := startServer(false)
		if err == nil {
			err = ls.stop()
		}
		if err == nil && setupErr == nil {
			if _, serr := os.Stat(lin.Path); os.IsNotExist(serr) {
				err = boot.SaveCheckpointLineage(lin, sim.LogPosition{})
			}
		}
		if err != nil && setupErr == nil {
			setupErr = err
		}
		return d
	}).Seconds()
	if setupErr != nil {
		return nil, setupErr
	}
	m["recover_s"] = recoverServer(lin, p.samples, o).Seconds()
	return o, nil
}

// traceAdserver runs the load untraced (the overhead reference) and then
// traced on the same server, then times query resolution per class.
func traceAdserver(rc runConfig) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	ls, _, _, err := startServer(true)
	if err != nil {
		return nil, err
	}
	mix := trafficMix(rc.seed)
	printMix(mix)
	bp := runLoad(ls, rc, mix, nil, 0, o)
	base := bp.closed
	o.layer["p50_ms"], o.layer["p99_ms"] = bp.openLatencyMS()
	runtime.GC()
	tr := newTracer()
	p := runLoad(ls, rc, mix, tr, 1, o)
	compareInProcess(ls.srv, p.samples, o)
	if err := ls.stop(); err != nil {
		return nil, err
	}

	m := o.layer
	handler := map[int64]float64{}
	for _, s := range tr.spans {
		if s.Name == "adserver.handler" && s.End >= 0 {
			handler[s.ID] = float64(s.End - s.Start)
		}
	}
	var hs []float64
	var svcSum, gapSum float64
	for i := range p.openReqs {
		h, ok := handler[p.idBase+int64(i)]
		if !ok {
			continue
		}
		hs = append(hs, h)
		svcSum += p.svc[i]
		gapSum += p.svc[i] - h
	}
	q := tailQuantile(len(hs))
	m["adserver.handler_us_p50"] = median(hs) / 1e3
	m["adserver.handler_us_tail"] = quantile(hs, q) / 1e3
	m["adserver.handler_tail_pct"] = 100 * q
	m["adserver.http_share"] = ratio(gapSum, svcSum)
	m["adserver.allocs_per_req"], m["adserver.gc_cpu_share"] = serverCost(ls.handler, bp.closedPaths, o)
	var nomatch, ads, okN float64
	for _, r := range p.replies {
		if r.ok {
			okN++
			ads += float64(r.ads)
			if r.nomatch {
				nomatch++
			}
		}
	}
	m["adserver.nomatch_share"] = ratio(nomatch, okN)
	m["adserver.ads_per_req"] = ratio(ads, okN)
	m["loadgen.late_ms_p99"] = quantile(p.late, 0.99) / 1e6
	m["loadgen.burst_gcs"] = float64(p.burstGCs)
	resolveByClass(ls.srv, mix, p.openReqs, m)
	m["trace.overhead_s"] = (p.closed - base).Seconds()
	m["trace.overhead_share"] = ratio(float64(p.closed-base), float64(base))
	return o, writeTrace(tr, "adserver", rc)
}

// serverCost serves paths in process through h, the stack the listener
// served, one request at a time with no client or connection. It returns
// the heap allocations per request and the collector's share of the CPU
// the pass used. Requests are built outside the counted spans and the
// response writer is reused, so no load-generator allocation counts.
func serverCost(h http.Handler, paths []string, o *outcome) (allocsPerReq, gcCPU float64) {
	const batch = 256
	w := &nullWriter{header: http.Header{}}
	reqs := make([]*http.Request, 0, batch)
	var allocs uint64
	runtime.GC()
	c0 := readCPU()
	for lo := 0; lo < len(paths); lo += batch {
		reqs = reqs[:0]
		for _, path := range paths[lo:min(lo+batch, len(paths))] {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, path, nil))
		}
		a0 := heapAllocs()
		for _, r := range reqs {
			w.reset()
			h.ServeHTTP(w, r)
			o.check(w.status == http.StatusOK)
		}
		allocs += heapAllocs() - a0
	}
	return ratio(float64(allocs), float64(len(paths))), gcShare(c0, readCPU())
}

// nullWriter is a reusable http.ResponseWriter that keeps only the status.
type nullWriter struct {
	header http.Header
	status int
}

func (w *nullWriter) reset() {
	clear(w.header)
	w.status = http.StatusOK
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// resolveRounds is how many times each class's queries are resolved;
// the median round counts.
const resolveRounds = 5

// resolveByClass times Server.Resolve in process over each class's
// open-loop queries.
func resolveByClass(srv *adserver.Server, mix []loadgen.Class, reqs []loadgen.Request, m map[string]float64) {
	for ci, c := range mix {
		var qs []string
		for _, rq := range reqs {
			if rq.Class == ci {
				qs = append(qs, rq.Query)
			}
		}
		if len(qs) == 0 {
			continue
		}
		rounds := make([]float64, 0, resolveRounds)
		for r := 0; r < resolveRounds; r++ {
			t0 := time.Now()
			for _, q := range qs {
				srv.Resolve(q)
			}
			rounds = append(rounds, float64(time.Since(t0))/float64(len(qs)))
		}
		m["adserver.resolve_ns."+c.Name] = median(rounds)
	}
}
