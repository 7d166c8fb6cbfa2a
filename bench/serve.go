package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/world"
	"github.com/parallax-arch/parallax/internal/serve"
)

// The serve-fleet workload: one shard ticking fleetSize sessions of the
// scene at serveHz with a per-session budget, asked for serveRate requests
// a second whatever its answers take.
const (
	fleetSize   = 8
	serveHz     = 60
	serveBudget = 8 * time.Millisecond
	serveRate   = 200
	warmTicks   = 120 // steps each session takes before the load, so ragdolls have landed

	// The load opens with loadWarmSeconds of requests that are checked but
	// not timed (connections are dialled, the first window of a cold fleet
	// reads up to ten times slower), and the rest is cut into windows of
	// windowSeconds for quietWindows.
	loadWarmSeconds = 1
	windowSeconds   = 1
)

// Routes of the request mix, in routeNames order.
const (
	routeQuery = iota
	routeInfo
	routeSnapshot
	routeStep
	routeCreate
	routeDelete
	numRoutes
)

// routeShare is the seeded mix: cumulative probability per scheduled slot.
// A create slot uploads a settled snapshot and deletes the session again,
// so it issues two requests.
var routeShare = [...]float64{routeQuery: 0.55, routeInfo: 0.75, routeSnapshot: 0.85, routeStep: 0.95, routeCreate: 1.0}

// reqSpec is one generated request. The server sees nothing of the seed
// but these.
type reqSpec struct {
	due      time.Duration // since the start of the window
	route    int
	session  int
	min, max [3]float64 // query box
	ticks    int        // step
}

// genSchedule draws n requests arriving as a Poisson process of the given
// rate: independent users, so exponential gaps. A fixed 5 ms grid would hit
// the 16.7 ms tick at only ten distinct phases, and which ten would depend
// on when the generator happened to start.
func genSchedule(seed int64, n, sessions int, rate float64) []reqSpec {
	r := rand.New(rand.NewSource(seed))
	out := make([]reqSpec, n)
	at := 0.0
	for i := range out {
		q := &out[i]
		at += r.ExpFloat64() / rate
		q.due = time.Duration(at * float64(time.Second))
		u := r.Float64()
		for q.route = routeQuery; u >= routeShare[q.route]; q.route++ {
		}
		q.session = r.Intn(sessions)
		// Boxes over the ring the ragdolls fall on (radius 3 m), from a
		// limb to most of the scene.
		c := [3]float64{r.Float64()*12 - 6, r.Float64() * 2, r.Float64()*12 - 6}
		h := 0.25 + r.Float64()*3
		for a := 0; a < 3; a++ {
			q.min[a], q.max[a] = c[a]-h, c[a]+h
		}
		q.ticks = 1 + r.Intn(3)
	}
	return out
}

// fleet is a running server behind a real loopback listener with its
// sessions created and warmed: the product of one serve set-up.
type fleet struct {
	srv    *serve.Server
	reg    *obs.Registry
	httpd  *http.Server
	done   chan error
	base   string
	client *http.Client
	ids    []string
	upload []byte // a warmed session's snapshot, the body of create requests
}

// startFleet is one full set-up of serve-fleet: server and listener up, the
// sessions created and warmed over HTTP, one snapshot fetched for the create
// requests to upload. It also returns how long each part took.
func startFleet(conns int) (*fleet, sample, error) {
	t := startLaps()
	reg := obs.NewRegistry()
	// The server's own tracer stays on in every run: the shard reads tick
	// durations from it, and without it the budget would not be enforced.
	srv, err := serve.New(serve.Config{Shards: 1, Threads: 1, Hz: serveHz, Budget: serveBudget}, obs.NewTracer(), reg)
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, nil, err
	}
	f := &fleet{
		srv: srv, reg: reg,
		httpd: &http.Server{Handler: srv.Handler()},
		done:  make(chan error, 1),
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
			Timeout:   30 * time.Second,
		},
	}
	go func() { f.done <- f.httpd.Serve(ln) }()
	t.lap()

	create, _ := json.Marshal(map[string]any{"scene": serveScene.Name, "scale": serveScene.Scale})
	for i := 0; i < fleetSize; i++ {
		var info serve.SessionInfo
		if err := f.call("POST", "/sessions", "application/json", create, http.StatusCreated, &info); err != nil {
			f.stop()
			return nil, nil, err
		}
		f.ids = append(f.ids, info.ID)
		t.lap()
	}
	warm, _ := json.Marshal(map[string]int{"ticks": warmTicks})
	for _, id := range f.ids {
		if err := f.call("POST", "/sessions/"+id+"/step", "application/json", warm, http.StatusOK, nil); err != nil {
			f.stop()
			return nil, nil, err
		}
		t.lap()
	}
	status, body, err := f.do("GET", "/sessions/"+f.ids[0]+"/snapshot", "", nil)
	if err != nil || status != http.StatusOK {
		f.stop()
		return nil, nil, fmt.Errorf("snapshot of a warmed session: status %d: %v", status, err)
	}
	f.upload = body
	t.lap()
	return f, t.ms, nil
}

// stop shuts the listener, drains the fleet and waits for both.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	f.httpd.Shutdown(ctx)
	<-f.done
	f.srv.Drain()
	f.client.CloseIdleConnections()
}

// do performs one request and returns the status and the whole body.
func (f *fleet) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call is do for set-up: any other status is an error, and a JSON answer
// is decoded into out when out is non-nil.
func (f *fleet) call(method, path, contentType string, body []byte, want int, out any) error {
	status, data, err := f.do(method, path, contentType, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

func (f *fleet) counter(name string) int64 { return f.reg.CounterValue(f.reg.Counter(name)) }

// conn is one generator connection's private record: latencies per route,
// the last step count seen per session, and the snapshots to verify once
// the clock has stopped.
type conn struct {
	res       *result
	log       *spanLog // nil with tracing off
	ms        [numRoutes]sample
	windows   []sample // the same latencies, by the window the request was due in
	lastSteps []int64
	snapshots [][]byte
}

// loadStats is what one open-loop window produced.
type loadStats struct {
	ms       [numRoutes]sample
	windows  []sample
	lateMax  time.Duration
	window   time.Duration
	ticks    int64
	misses   int64
	evicted  int64
	rejected int64
}

// add folds another load's results into l.
func (l *loadStats) add(o loadStats) {
	for r := range l.ms {
		l.ms[r] = append(l.ms[r], o.ms[r]...)
	}
	l.windows = append(l.windows, o.windows...)
	l.lateMax = max(l.lateMax, o.lateMax)
	l.window += o.window
	l.ticks += o.ticks
	l.misses += o.misses
	l.evicted += o.evicted
	l.rejected += o.rejected
}

func (l *loadStats) pooled() sample {
	var all sample
	for _, m := range l.ms {
		all = append(all, m...)
	}
	return all
}

// load drives the fleet open loop for the warm-up plus the given time and
// checks every answer: status, shape, step counts that never go backwards within a
// connection, and (after the window) that every snapshot restores. A
// wrong answer is a failed operation in res.
func (f *fleet) load(seed int64, seconds float64, conns int, res *result, log *spanLog) loadStats {
	n := int((loadWarmSeconds + seconds) * serveRate)
	sched := genSchedule(seed, n, fleetSize, serveRate)
	due := make([]time.Duration, n)
	for i := range sched {
		due[i] = sched[i].due
	}
	// Whole windows only: the schedule's ragged end joins the last one.
	nWindows := max(1, int(seconds/windowSeconds))
	cs := make([]*conn, conns)
	for k := range cs {
		cs[k] = &conn{res: newResult(), lastSteps: make([]int64, fleetSize), windows: make([]sample, nWindows)}
		if log != nil {
			cs[k].log = log.newLane(fmt.Sprintf("loadgen/conn%d", k))
		}
	}
	before := [...]int64{f.counter("serve/ticks"), f.counter("serve/deadline_misses"), f.counter("serve/evictions"), f.counter("serve/rejections")}
	t0 := time.Now()
	late := openLoop(conns, due, func(k, i int, due time.Time) {
		window := -1 // warm-up: sent and checked, not timed
		if at := sched[i].due.Seconds() - loadWarmSeconds; at >= 0 {
			window = min(int(at/windowSeconds), nWindows-1)
		}
		f.send(cs[k], &sched[i], due, window)
	})
	st := loadStats{lateMax: late, window: time.Since(t0), windows: make([]sample, nWindows)}
	st.ticks = f.counter("serve/ticks") - before[0]
	st.misses = f.counter("serve/deadline_misses") - before[1]
	st.evicted = f.counter("serve/evictions") - before[2]
	st.rejected = f.counter("serve/rejections") - before[3]

	for _, c := range cs {
		for r := range c.ms {
			st.ms[r] = append(st.ms[r], c.ms[r]...)
		}
		for i := range c.windows {
			st.windows[i] = append(st.windows[i], c.windows[i]...)
		}
		for _, snap := range c.snapshots {
			res.check(world.New().Restore(snap) == nil, "a served snapshot (%d bytes) does not restore", len(snap))
		}
		res.attempted += c.res.attempted
		res.failed += c.res.failed
		res.failures = append(res.failures, c.res.failures...)
	}
	res.check(f.srv.Sessions() == fleetSize, "%d sessions resident after the load, want %d", f.srv.Sessions(), fleetSize)
	return st
}

// send issues one scheduled request on connection c, timed from due and
// filed under the given window (none when window < 0).
func (f *fleet) send(c *conn, q *reqSpec, due time.Time, window int) {
	id := f.ids[q.session]
	timed := func(route int, from time.Time, method, path, ctype string, body []byte, want int) []byte {
		var span int32
		if c.log != nil {
			span = c.log.begin("http." + routeNames[route])
		}
		status, data, err := f.do(method, path, ctype, body)
		if window >= 0 {
			ms := millis(time.Since(from))
			c.ms[route] = append(c.ms[route], ms)
			c.windows[window] = append(c.windows[window], ms)
		}
		if c.log != nil {
			c.log.end(span)
		}
		if err != nil || status != want {
			c.res.fail("%s %s: status %d, want %d: %v", method, path, status, want, err)
			return nil
		}
		c.res.ok(1)
		return data
	}
	switch q.route {
	case routeQuery:
		body, _ := json.Marshal(map[string]any{"min": q.min, "max": q.max})
		if data := timed(routeQuery, due, "POST", "/sessions/"+id+"/query", "application/json", body, http.StatusOK); data != nil {
			var ans struct {
				Bodies []int32 `json:"bodies"`
				Count  *int    `json:"count"`
			}
			err := json.Unmarshal(data, &ans)
			c.res.check(err == nil && ans.Count != nil && *ans.Count >= 0 && *ans.Count == len(ans.Bodies), "query answer malformed: %s", data)
		}
	case routeInfo:
		if data := timed(routeInfo, due, "GET", "/sessions/"+id, "", nil, http.StatusOK); data != nil {
			c.checkInfo(data, id, q.session, 0)
		}
	case routeStep:
		body, _ := json.Marshal(map[string]int{"ticks": q.ticks})
		if data := timed(routeStep, due, "POST", "/sessions/"+id+"/step", "application/json", body, http.StatusOK); data != nil {
			c.checkInfo(data, id, q.session, int64(q.ticks))
		}
	case routeSnapshot:
		if data := timed(routeSnapshot, due, "GET", "/sessions/"+id+"/snapshot", "", nil, http.StatusOK); data != nil {
			c.snapshots = append(c.snapshots, data)
		}
	case routeCreate:
		data := timed(routeCreate, due, "POST", "/sessions", "application/octet-stream", f.upload, http.StatusCreated)
		if data == nil {
			return
		}
		var info serve.SessionInfo
		err := json.Unmarshal(data, &info)
		c.res.check(err == nil && info.ID != "" && info.Scene == "snapshot" && info.State == "active", "create answer malformed: %s", data)
		if info.ID != "" {
			// The follow-up is closed loop: it is due when its create returns.
			timed(routeDelete, time.Now(), "DELETE", "/sessions/"+info.ID, "", nil, http.StatusNoContent)
		}
	}
}

// checkInfo verifies a SessionInfo answer: the right session, healthy and
// active, and a step count that advanced by at least minAdvance since this
// connection last saw the session.
func (c *conn) checkInfo(data []byte, id string, session int, minAdvance int64) {
	var info serve.SessionInfo
	err := json.Unmarshal(data, &info)
	okShape := err == nil && info.ID == id && info.Healthy && info.State == "active" && info.Bodies > 0
	c.res.check(okShape, "session info malformed or unhealthy: %s", data)
	c.res.check(info.Steps >= c.lastSteps[session]+minAdvance, "session %s steps went from %d to %d", id, c.lastSteps[session], info.Steps)
	if info.Steps > c.lastSteps[session] {
		c.lastSteps[session] = info.Steps
	}
}

// quietWindows pools the requests of the quieter half of the windows, those
// with the lowest mean latency. Interference from the machine comes in
// bursts of a second or more and only ever adds time, so the quieter half is
// the fleet as a quiet machine would serve it; half the run's requests keep
// the sampling error of where arrivals fall against the tick near 2%.
func quietWindows(windows []sample) sample {
	byMean := append([]sample(nil), windows...)
	sort.Slice(byMean, func(i, j int) bool { return byMean[i].mean() < byMean[j].mean() })
	var out sample
	for _, w := range byMean[:(len(byMean)+1)/2] {
		out = append(out, w...)
	}
	return out
}

// extras adds the serve numbers every serve run prints beside the
// contract metrics.
func (st *loadStats) extras(res *result) {
	res.addExtra("tick_rate_frac", st.tickRate(), "frac", "delta serve/ticks / (Hz * window); 1.0 = the fleet kept real time")
	res.addExtra("gen_late_ms_max", millis(st.lateMax), "ms", "how late the generator sent at worst")
	for r, name := range routeNames {
		s := st.ms[r].sorted()
		t := pickTail(len(s))
		res.addExtra("route."+name+"_ms_tail", s.percentile(t), "ms", fmt.Sprintf("p%g of n=%d", t*100, len(s)))
	}
}

func (st *loadStats) tickRate() float64 {
	return float64(st.ticks) / (serveHz * st.window.Seconds())
}

// serveConns is the generator's connection count: alternate schedule slots
// over min(nproc,4) connections, never more than the machine has CPUs.
func serveConns() int { return machineThreads() }

// runServe is the untraced serve-fleet run: per segment a fresh fleet and
// its share of the load, each on its own seeded schedule.
func runServe(wl workloadDef, seed int64, seconds float64) (*result, error) {
	res := newResult()
	conns := serveConns()
	var (
		st     loadStats
		setups []sample
	)
	for seg := 0; seg < segments; seg++ {
		f, parts, err := startFleet(conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, parts)
		st.add(f.load(seed*segments+int64(seg), seconds/segments, conns, res, nil))
		f.stop()
	}
	res.check(st.evicted == 0 && st.rejected == 0, "%d sessions evicted, %d creates rejected under a load the fleet should carry", st.evicted, st.rejected)
	reportOps(res, quietWindows(st.windows), st.pooled(), quietSeconds(setups))
	st.extras(res)
	return res, nil
}

// probeServe fills in the serve layer's metrics for a traced run: the HTTP
// floor, an open-loop window with a span per request, the shard tick alone
// on an identical fleet, and session creation called directly.
func probeServe(seed int64, seconds float64, res *result, log *spanLog) error {
	conns := serveConns()
	f, _, err := startFleet(conns)
	if err != nil {
		return err
	}
	defer f.stop()

	var floor sample
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		status, _, err := f.do("GET", "/health", "", nil)
		floor = append(floor, millis(time.Since(t0)))
		res.check(err == nil && status == http.StatusOK, "GET /health: status %d: %v", status, err)
	}
	floor = floor.sorted()

	var st loadStats
	log.span("serve.load", func() { st = f.load(seed, seconds, conns, res, log) })
	for r, name := range routeNames {
		res.set("serve.route."+name+"_ms_p50", median(st.ms[r]))
	}
	res.set("serve.http_floor_ms_p50", floor.percentile(0.5))
	res.set("serve.queue_wait_ms_p95", st.ms[routeInfo].sorted().percentile(0.95)-floor.percentile(0.95))
	res.set("serve.tick_rate_frac", st.tickRate())
	res.set("serve.deadline_miss_rate", ratio(float64(st.misses), float64(st.ticks*fleetSize)))
	res.set("serve.evictions", float64(st.evicted))
	res.set("serve.rejections", float64(st.rejected))
	res.set("serve.gen_late_ms_max", millis(st.lateMax))
	all := st.pooled().sorted()
	res.addExtra("serve.req_ms_mean", all.mean(), "ms", "traced; compare with op_ms_mean of the untraced serve-fleet run for the tracing overhead")
	res.addExtra("serve.req_ms_p95", all.percentile(0.95), "ms", "traced")
	st.extras(res)

	// Session creation, called directly so HTTP is not in the number.
	var sceneMs, snapMs []float64
	for i := 0; i < 5; i++ {
		for _, probe := range []struct {
			name string
			snap []byte
			into *[]float64
		}{{"serve.create-scene", nil, &sceneMs}, {"serve.create-snapshot", f.upload, &snapMs}} {
			var info serve.SessionInfo
			var cerr error
			ns := log.span(probe.name, func() { info, cerr = f.srv.Create(serveScene.Name, serveScene.Scale, probe.snap) })
			if cerr != nil {
				return fmt.Errorf("%s: %w", probe.name, cerr)
			}
			*probe.into = append(*probe.into, float64(ns)/1e6)
			res.check(f.srv.Delete(info.ID), "delete of probe session %s refused", info.ID)
		}
	}
	res.set("serve.create_scene_ms", median(sceneMs))
	res.set("serve.create_snapshot_ms", median(snapMs))

	// The tick alone: an identical fleet on a shard with no HTTP, no
	// ticker and no queue in front of it.
	worlds := make([]*world.World, fleetSize)
	for i := range worlds {
		w, err := buildPlain(serveScene)
		if err != nil {
			return err
		}
		for s := 0; s < warmTicks; s++ {
			w.Step()
		}
		worlds[i] = w
	}
	sb := serve.NewShardBench(obs.NewRegistry(), serveBudget, false, worlds...)
	var tickMs []float64
	for i := 0; i < 200; i++ {
		tickMs = append(tickMs, float64(log.span("serve.tick", sb.Tick))/1e6)
	}
	res.set("serve.tick_ms_p50", median(tickMs))
	res.set("serve.tick_util_frac", median(tickMs)*serveHz/1e3)
	return nil
}
