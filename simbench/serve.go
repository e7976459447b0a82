package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/server"
)

// preAgedRecords is the history a serving workload's daemon starts
// with, so appends cost what they cost in a daemon that has run for a
// while.
const preAgedRecords = 1000

// service is an in-process simprofd: server.New with the default
// Config plus a durable history store, served on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	hist   string
	log    *syncBuffer // access log, nil when off
	conns  int
	dir    string
}

// syncBuffer is an access-log sink safe to read while the logger writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// startService pre-ages a history store in dir and starts the server on
// it. withLog attaches an access log for the traced run.
func startService(dir string, seed uint64, withLog bool) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	hist := filepath.Join(dir, "history.jsonl")
	if err := preAgeHistory(hist, preAgedRecords, seed); err != nil {
		return nil, err
	}
	// simprofd always records its telemetry; so does the benchmark's.
	obs.Enable()
	cfg := server.Config{HistoryPath: hist}
	var log *syncBuffer
	if withLog {
		log = &syncBuffer{}
		cfg.AccessLog = log
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	conns := runtime.NumCPU()
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		hist:  hist,
		log:   log,
		conns: conns,
		dir:   dir,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains and closes the server, and removes
// its directory.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.BeginDrain()
	s.srv.Drain(ctx)
	s.srv.Close()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	Status int
	Cache  string // X-Simprof-Cache
	Body   []byte
	Dur    time.Duration // send to last byte read
}

// post sends one profile upload.
func (s *service) post(ctx context.Context, path string, body []byte, reqID string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{Status: resp.StatusCode, Cache: resp.Header.Get("X-Simprof-Cache"), Body: data, Dur: time.Since(start)}, nil
}

// accessLine is the part of a server access-log line the benchmark reads.
type accessLine struct {
	ID        string  `json:"id"`
	Route     string  `json:"route"`
	Status    int     `json:"status"`
	EnqueueMS float64 `json:"enqueue_ms"`
	FlushMS   float64 `json:"flush_ms"`
	HandleMS  float64 `json:"handle_ms"`
}

func parseAccessLog(data []byte) map[string]accessLine {
	out := map[string]accessLine{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var l accessLine
		if json.Unmarshal(sc.Bytes(), &l) == nil && l.ID != "" {
			out[l.ID] = l
		}
	}
	return out
}

// serveOp is one scheduled profile post of a serving workload.
type serveOp struct {
	Path   string // /v1/profile with its query
	Upload int    // index into the uploads
}

// serveSpec is a serving workload's shape.
type serveSpec struct {
	units   int     // trace size of each upload
	uploads int     // distinct traces generated in set-up
	refRate float64 // the fixed rate (1/s) latency is timed at
	burst   int     // arrivals queued for the saturation step
	verify  int     // distinct profile requests re-run in-process for bit-identity
	// timing is how long the verified uploads are profiled round-robin
	// for profile_s, beyond the one verifying pass.
	timing time.Duration
	// schedule lays out the requests for a seed: arrivals and the op of
	// each arrival.
	schedule func(seed uint64, steps []Step) ([]Arrival, []serveOp)
}

// serveSteps lays the run's seconds out: two thirds at the reference
// rate, so its latencies rest on enough samples, then a saturation step
// whose queued arrivals keep every connection busy.
func serveSteps(spec serveSpec, total time.Duration) []Step {
	ref := total * 2 / 3
	return []Step{{Rate: spec.refRate, Dur: ref}, {Dur: total - ref, Burst: spec.burst}}
}

// serveState is one set-up of a serving workload: its schedule, its
// uploads and a started server.
type serveState struct {
	svc     *service
	sched   []Arrival
	ops     []serveOp
	uploads []Upload
}

// played is one open-loop play of a schedule.
type played struct {
	st      serveState
	samples []Sample
	replies []reply
	errs    []error
	ids     []string
	spanIDs []int // client span per request, when traced
	records int   // history records after the play
	// peakMB and allocMB are the peak live heap and the bytes allocated
	// during the play, in MB.
	peakMB, allocMB float64
}

// play runs the schedule's steps against the service. With a tracer
// every request carries an X-Request-Id and a client span. Sending
// stops when the last step ends (a fixed-rate last step gets a grace
// period), so an overloaded server bounds the run's length; what was
// never sent is dropped.
func play(st serveState, steps []Step, tr *Tracer) played {
	n := len(st.sched)
	p := played{st: st, replies: make([]reply, n), errs: make([]error, n), ids: make([]string, n), spanIDs: make([]int, n)}
	var end time.Duration
	for _, s := range steps {
		end += s.Dur
	}
	if steps[len(steps)-1].Burst == 0 {
		end += max(2*time.Second, end/10)
	}
	stop, cancel := context.WithTimeout(context.Background(), end)
	defer cancel()
	mem := watchMemory()
	ctx := context.Background() // the stop ends sending, not requests in flight
	p.samples, _ = RunOpenLoop(stop, st.sched, st.svc.conns, func(i int) bool {
		op := st.ops[i]
		if tr != nil {
			p.ids[i] = fmt.Sprintf("bench-%d", i)
		}
		sp := tr.Start("client POST", 0, p.ids[i])
		r, err := st.svc.post(ctx, op.Path, st.uploads[op.Upload].Data, p.ids[i])
		tr.End(sp)
		p.spanIDs[i] = sp
		p.replies[i], p.errs[i] = r, err
		return err == nil && r.Status == http.StatusOK
	})
	p.peakMB, p.allocMB = mem.Stop()
	if recs, _, err := history.Open(st.svc.hist).Records(); err == nil {
		p.records = len(recs)
	}
	return p
}

// sent is how many requests the play sent.
func (p played) sent() int {
	n := 0
	for _, s := range p.samples {
		if !s.Dropped {
			n++
		}
	}
	return n
}

// refStat is the outcome at the reference rate: latency from due time
// and how well the generator kept to the schedule.
type refStat struct {
	lat    []float64 // ms from due
	P50    float64   // ms from due
	Tail   Tail      // ms from due
	Failed int
	Gen    GenStats
}

// analyzeRef summarizes the first step, which a schedule lays out first.
func analyzeRef(p played) refStat {
	var lat []float64
	var st refStat
	n := 0
	for n < len(p.st.sched) && p.st.sched[n].Step == 0 {
		s := p.samples[n]
		n++
		if s.Dropped {
			continue
		}
		if !s.OK {
			st.Failed++
		}
		lat = append(lat, ms(s.Latency()))
	}
	st.lat, st.P50, st.Tail, st.Gen = lat, Median(lat), TailOf(lat), genStats(p.samples[:n])
	return st
}

// saturationRate is the rate the service served in the given burst
// step: the step's sent requests over the time from its first send to
// its last completion. A request waited for every connection the whole
// time, so this is the highest rate the service sustains through them;
// any higher offered rate grows the backlog.
func saturationRate(p played, step int) (rate float64, n int) {
	first, last := time.Duration(-1), time.Duration(0)
	for i, a := range p.st.sched {
		s := p.samples[i]
		if a.Step != step || s.Dropped {
			continue
		}
		n++
		if first < 0 || s.Sent < first {
			first = s.Sent
		}
		last = max(last, s.Done)
	}
	if n == 0 || last <= first {
		return 0, n
	}
	return float64(n) / (last - first).Seconds(), n
}

// sameProfile reports whether two profile replies agree bit for bit,
// history record included; only the per-request elapsed time may differ.
func sameProfile(a, b server.ProfileResponse) bool {
	a.ElapsedMS, b.ElapsedMS = 0, 0
	return reflect.DeepEqual(a, b)
}

// profileQuery parses n and seed back out of a profile path.
func profileQuery(path string) (n int, seed uint64) {
	n, seed = 20, 1
	fmt.Sscanf(path, "/v1/profile?n=%d&seed=%d", &n, &seed)
	return n, seed
}

// checkReplies validates every successful reply: profile replies for
// the same upload and options agree exactly, and each new profile names
// a new history record after the pre-aged ones. It returns the first
// reply of each distinct profile request, in schedule order.
func checkReplies(rep *Report, p played) []int {
	first := map[string]int{}
	var order []int
	seqs := map[int]string{}
	for i, op := range p.st.ops {
		r := p.replies[i]
		if p.errs[i] != nil || r.Status != http.StatusOK {
			continue
		}
		var got server.ProfileResponse
		if err := json.Unmarshal(r.Body, &got); err != nil {
			rep.fail("request %d: bad profile JSON: %v", i, err)
			continue
		}
		if got.Seq <= preAgedRecords {
			rep.fail("request %d: history seq %d does not follow the %d pre-aged records", i, got.Seq, preAgedRecords)
		}
		key := fmt.Sprintf("%d %s", op.Upload, op.Path)
		if j, ok := first[key]; ok {
			var want server.ProfileResponse
			json.Unmarshal(p.replies[j].Body, &want)
			if !sameProfile(got, want) {
				rep.fail("request %d: differs from request %d for the same upload and options", i, j)
			}
			continue
		}
		if other, ok := seqs[got.Seq]; ok {
			rep.fail("request %d: history seq %d already used by %s", i, got.Seq, other)
		}
		seqs[got.Seq] = key
		first[key] = i
		order = append(order, i)
	}
	return order
}

// verifyInProcess re-runs the pipeline in-process on a spread of the
// distinct profile requests and checks the service's reply equals it bit
// for bit. It then keeps profiling the verified uploads round-robin for
// timing, and returns the formed traces and every run's wall time.
func verifyInProcess(ctx context.Context, rep *Report, p played, order []int, count int, timing time.Duration, tr *Tracer) ([]formed, []float64, error) {
	if len(order) == 0 {
		return nil, nil, errors.New("no profile reply to verify")
	}
	var fs []formed
	var secs []float64
	var verified []int
	step := max(1, len(order)/count)
	for k := 0; k < len(order) && len(fs) < count; k += step {
		i := order[k]
		op := p.st.ops[i]
		up := p.st.uploads[op.Upload]
		n, seed := profileQuery(op.Path)
		var got server.ProfileResponse
		json.Unmarshal(p.replies[i].Body, &got)
		root := tr.Start("verify", 0, p.ids[i])
		start := time.Now()
		out, err := profile(ctx, up.Data, n, seed, tr, root, p.ids[i])
		secs = append(secs, time.Since(start).Seconds())
		tr.End(root)
		if err != nil {
			return nil, nil, fmt.Errorf("in-process profile of request %d: %w", i, err)
		}
		verified = append(verified, i)
		checkProfile(rep, fmt.Sprintf("request %d", i), out, n, up.Units)
		want := server.ProfileResponse{Seq: got.Seq, Key: got.Key, Units: out.Units, K: out.Ph.K, Silhouette: out.Ph.Silhouette,
			N: n, EstCPI: out.Sp.EstCPI, SE: out.Sp.SE, CILo: out.CI[0], CIHi: out.CI[1], Alloc: out.Sp.Alloc}
		if !sameProfile(got, want) {
			rep.fail("request %d: service reply %+v differs from in-process pipeline %+v", i, got, want)
		}
		fs = append(fs, formed{Ph: out.Ph, Oracle: up.Oracle, Seed: seed})
	}
	rep.notef("verified %d distinct profile replies bit for bit against the in-process pipeline", len(fs))
	deadline := time.Now().Add(timing)
	for k := 0; time.Now().Before(deadline); k++ {
		op := p.st.ops[verified[k%len(verified)]]
		n, seed := profileQuery(op.Path)
		start := time.Now()
		if _, err := profile(ctx, p.st.uploads[op.Upload].Data, n, seed, nil, 0, ""); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	rep.notef("profile_s is the median of %d in-process profiles of %d-unit uploads", len(secs), p.st.uploads[0].Units)
	return fs, secs, nil
}

// buildServe is one set-up of a serving workload: lay out the
// schedule, generate its uploads, pre-age the history store and start
// the server on it. rep numbers the set-up's directory.
func buildServe(cfg runCfg, spec serveSpec, steps []Step, rep int, withLog bool) (serveState, error) {
	sched, ops := spec.schedule(cfg.seed, steps)
	uploads, err := makeUploads(spec.units, cfg.seed, spec.uploads)
	if err != nil {
		return serveState{}, err
	}
	svc, err := startService(filepath.Join(cfg.dir, fmt.Sprintf("setup%d-%v", rep, withLog)), cfg.seed, withLog)
	if err != nil {
		return serveState{}, err
	}
	return serveState{svc: svc, sched: sched, ops: ops, uploads: uploads}, nil
}

func runServe(name string, cfg runCfg, spec serveSpec) (*Report, error) {
	ctx := context.Background()
	rep := newReport()
	steps := serveSteps(spec, cfg.seconds)
	if cfg.traced {
		// A traced run plays the reference rate twice, untraced and then
		// traced, and reports the difference as tracing overhead.
		steps = []Step{{Rate: spec.refRate, Dur: cfg.seconds / 2}}
	}
	st, setupS, err := timeSetup(func(r int) (serveState, error) {
		return buildServe(cfg, spec, steps, r, false)
	}, func(s serveState) { s.svc.stop() })
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setupS
	runtime.GC()

	p := play(st, steps, nil)
	st.svc.stop()
	plays := []played{p}

	var tr *Tracer
	if cfg.traced {
		tst, err := buildServe(cfg, spec, steps, setupReps, true)
		if err != nil {
			return nil, err
		}
		tr = NewTracer()
		plays = append(plays, play(tst, steps, tr))
		tst.svc.stop()
	}

	for _, pl := range plays {
		for i := range pl.st.ops {
			if pl.samples[i].Dropped {
				continue
			}
			rep.Attempted++
			if pl.errs[i] != nil || pl.replies[i].Status != http.StatusOK {
				rep.Failed++
				if pl.errs[i] != nil {
					rep.notef("request %d: %v", i, pl.errs[i])
				}
			}
		}
	}
	order := checkReplies(rep, p)
	for _, pl := range plays[1:] {
		checkReplies(rep, pl)
	}
	runtime.GC()
	fs, secs, err := verifyInProcess(ctx, rep, p, order, spec.verify, spec.timing, tr)
	if err != nil {
		return nil, err
	}
	dr := tr.Start("draws", 0, "")
	q, err := drawQuality(ctx, fs, sampleN, tr, dr)
	tr.End(dr)
	if err != nil {
		return nil, err
	}

	ref := analyzeRef(p)
	sat, satN := saturationRate(p, 1)
	rep.notef("%s at %.0f/s: %d requests, p50 %.2f ms, tail p%.1f of %d = %.2f ms from due, failed %d; generator late p99 %.1f ms, backlog max %d",
		name, spec.refRate, ref.Gen.Sent, ref.P50, ref.Tail.Pct, ref.Tail.N, ref.Tail.Value, ref.Failed, ms(ref.Gen.LateP99), ref.Gen.BacklogMax)
	rep.notef("%s latency from due at %.0f/s, p75/p85/p90/p95/p99: %.2f/%.2f/%.2f/%.2f/%.2f ms", name, spec.refRate,
		Quantile(ref.lat, 0.75), Quantile(ref.lat, 0.85), Quantile(ref.lat, 0.90), Quantile(ref.lat, 0.95), Quantile(ref.lat, 0.99))
	if len(steps) > 1 {
		rep.notef("%s saturated over %d connections: %d requests served at %.2f/s", name, st.svc.conns, satN, sat)
	}
	rep.notef("estimate over %d draws on %d verified traces: rms err %.3f%%, CI(%.1f%%) misses %.2f%%",
		q.Draws, len(fs), q.RMSErrPct, 100*ciLevel, q.MissPct)
	rep.E2E["profile_s"] = Median(secs)
	rep.E2E["est_err_pct"] = q.RMSErrPct
	rep.E2E["lat_p50_ms"] = ref.P50
	rep.E2E["lat_tail_ms"] = ref.Tail.Value
	rep.E2E["sustained_rps"] = sat
	rep.E2E["heap_peak_mb"] = p.peakMB - inputMB(st.uploads)
	rep.E2E["alloc_mb_per_op"] = p.allocMB / float64(max(p.sent(), 1))

	if cfg.traced {
		tp := plays[1]
		setServiceLayers(rep, tp, tr)
		spans := tr.Spans()
		d := Durations(spans)
		formS := Median(d["phase.FormCtx"]) / 1000
		var iters []float64
		for _, f := range fs {
			pass := tr.Start("standalone", 0, "")
			it, err := clusterPass(rep, f.Ph, f.Seed, tr, pass)
			tr.End(pass)
			if err != nil {
				return nil, err
			}
			iters = append(iters, float64(it))
		}
		spans = tr.Spans()
		d = Durations(spans)
		setPipelineLayers(rep, d, formS, Median(d["cluster.ChooseKDense"])/1000,
			float64(len(p.st.uploads[0].Data))/1e6, medianK(fs), Median(iters), q)
		rep.Layer["trace.overhead_pct"] = 100 * (analyzeRef(tp).P50/ref.P50 - 1)
		rep.Spans = spans
		noteSelfTimes(rep, spans)
	}
	return rep, nil
}

func medianK(fs []formed) float64 {
	ks := make([]float64, len(fs))
	for i, f := range fs {
		ks[i] = float64(f.Ph.K)
	}
	return Median(ks)
}

// setServiceLayers derives the service layers' metrics from the traced
// play: the cache header of each profile reply, and the server's access
// log joined to the client's timing by request ID.
func setServiceLayers(rep *Report, p played, tr *Tracer) {
	log := parseAccessLog(p.st.svc.log.Bytes())
	spans := tr.All()
	var posts, hits, coalesced, misses, rejected int
	var enqueue, flush, handle, transport []float64
	for i := range p.st.ops {
		r := p.replies[i]
		line, logged := log[p.ids[i]]
		if logged && p.spanIDs[i] > 0 {
			// The server's handle time sits inside the client's span; it
			// is placed at the span's end, so the client span's self time
			// is the transport share.
			c := spans[p.spanIDs[i]-1]
			start := max(c.Start, c.End-time.Duration(line.HandleMS*float64(time.Millisecond)))
			tr.Add("server "+line.Route, c.ID, p.ids[i], start, c.End)
		}
		posts++
		if r.Status == http.StatusTooManyRequests {
			rejected++
		}
		switch r.Cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		case "miss":
			misses++
			if logged {
				enqueue = append(enqueue, line.EnqueueMS)
				flush = append(flush, line.FlushMS)
			}
		}
		if logged {
			handle = append(handle, line.HandleMS)
			transport = append(transport, ms(r.Dur)-line.HandleMS)
		}
	}
	pct := func(k int) float64 { return 100 * float64(k) / float64(max(posts, 1)) }
	rep.Layer["history.append_ms"] = Median(flush)
	rep.Layer["history.records"] = float64(p.records)
	rep.Layer["batch.hit_pct"] = pct(hits)
	rep.Layer["batch.coalesced_pct"] = pct(coalesced)
	rep.Layer["batch.miss_pct"] = pct(misses)
	rep.Layer["server.enqueue_ms"] = Median(enqueue)
	rep.Layer["server.handle_ms"] = Median(handle)
	rep.Layer["server.transport_ms"] = Median(transport)
	rep.Layer["resilience.rejected_pct"] = pct(rejected)
	gen := analyzeRef(p).Gen
	rep.Layer["loadgen.late_p99_ms"] = ms(gen.LateP99)
	rep.Layer["loadgen.backlog_max"] = float64(gen.BacklogMax)
	rep.Layer["loadgen.sent"] = float64(gen.Sent)
	rep.notef("traced play: %d profile posts (%d hit, %d coalesced, %d miss, %d rejected); %d access-log lines",
		posts, hits, coalesced, misses, rejected, len(log))
}
