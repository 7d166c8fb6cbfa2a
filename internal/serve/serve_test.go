package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/geom"
	"github.com/parallax-arch/parallax/internal/phys/m3"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// tinyWorld is the cheapest interesting session: one sphere falling
// onto a plane — a few hundred nanoseconds per step, so churn and
// fleet-scale tests stay fast.
func tinyWorld() *world.World {
	w := world.New()
	w.AddStatic(geom.Plane{Normal: m3.V(0, 1, 0)}, m3.V(0, 0, 0), m3.QIdent)
	w.AddBody(geom.Sphere{R: 0.5}, 1, m3.V(0, 2, 0), m3.QIdent, 0, 0)
	return w
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	srv, err := New(cfg, tr, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func createScene(t *testing.T, base, scene string, scale float64) SessionInfo {
	t.Helper()
	resp, data := doJSON(t, "POST", base+"/sessions", createRequest{Scene: scene, Scale: scale})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", scene, resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("create reply: %v", err)
	}
	return info
}

func uploadWorld(t *testing.T, base string, w *world.World) SessionInfo {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/octet-stream", bytes.NewReader(w.Snapshot()))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("upload reply: %v", err)
	}
	return info
}

func getSnapshot(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", resp.StatusCode, data)
	}
	return data
}

func stepSession(t *testing.T, base, id string, ticks int) SessionInfo {
	t.Helper()
	resp, data := doJSON(t, "POST", base+"/sessions/"+id+"/step", stepRequest{Ticks: ticks})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step %s: status %d: %s", id, resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("step reply: %v", err)
	}
	return info
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Hz: 0})

	info := createScene(t, ts.URL, "Ragdoll", 0.2)
	if info.ID == "" {
		t.Fatal("created session has empty id")
	}
	// The create reply is the info route's reply, on both create paths.
	for path, created := range map[string]SessionInfo{"scene": info, "upload": uploadWorld(t, ts.URL, tinyWorld())} {
		if created.Bodies == 0 || !created.Healthy || created.State != "active" || created.Steps != 0 {
			t.Fatalf("create from %s answered %+v, want bodies > 0, healthy, active, 0 steps", path, created)
		}
	}

	resp, data := doJSON(t, "GET", ts.URL+"/sessions/"+info.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d: %s", resp.StatusCode, data)
	}
	var got SessionInfo
	json.Unmarshal(data, &got)
	if got.Scene != "Ragdoll" || got.State != "active" || got.Bodies == 0 {
		t.Fatalf("info = %+v", got)
	}

	stepped := stepSession(t, ts.URL, info.ID, 5)
	if stepped.Steps != 5 {
		t.Fatalf("steps = %d, want 5", stepped.Steps)
	}

	snap := getSnapshot(t, ts.URL, info.ID)
	if !bytes.HasPrefix(snap, []byte("PAXW")) {
		t.Fatalf("snapshot does not start with PAXW magic: %q", snap[:8])
	}

	resp, data = doJSON(t, "POST", ts.URL+"/sessions/"+info.ID+"/query",
		queryRequest{Min: [3]float64{-100, -100, -100}, Max: [3]float64{100, 100, 100}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, data)
	}
	var q struct {
		Count int `json:"count"`
	}
	json.Unmarshal(data, &q)
	if q.Count == 0 {
		t.Fatal("all-space query returned no bodies")
	}

	resp, _ = doJSON(t, "GET", ts.URL+"/sessions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/sessions/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/sessions/"+info.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still answers: status %d", resp.StatusCode)
	}

	// What one create request may ask for is bounded: the body by
	// maxCreateBody (413 beyond it, whichever branch reads it), the scene
	// scale by maxSceneScale (400). A body of exactly the limit gets past
	// the size gate.
	// The per-session bodies are bounded by maxOpBody the same way, before
	// the session is even looked up.
	scene := `{"scene":"Ragdoll","scale":0.2}`
	padded := func(n int) string { return strings.Repeat(" ", n-len(scene)) + scene }
	bigOp := strings.Repeat(" ", maxOpBody) + `{}`
	for _, c := range []struct {
		name, path, contentType, body string
		want                          int
	}{
		{"oversized snapshot", "/sessions", "application/octet-stream", strings.Repeat("\x00", maxCreateBody+1), http.StatusRequestEntityTooLarge},
		{"oversized json", "/sessions", "application/json", padded(maxCreateBody + 1), http.StatusRequestEntityTooLarge},
		{"snapshot at limit", "/sessions", "application/octet-stream", strings.Repeat("\x00", maxCreateBody), http.StatusBadRequest},
		{"json at limit", "/sessions", "application/json", padded(maxCreateBody), http.StatusCreated},
		{"scale 1e9", "/sessions", "application/json", `{"scene":"Ragdoll","scale":1e9}`, http.StatusBadRequest},
		{"scale at limit", "/sessions", "application/json", fmt.Sprintf(`{"scene":"Ragdoll","scale":%d}`, maxSceneScale), http.StatusCreated},
		{"oversized step", "/sessions/x/step", "application/json", bigOp, http.StatusRequestEntityTooLarge},
		{"oversized query", "/sessions/x/query", "application/json", bigOp, http.StatusRequestEntityTooLarge},
		{"oversized migrate", "/sessions/x/migrate", "application/json", bigOp, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+c.path, c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, data)
		}
	}
}

func TestAdmissionCapRejects(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1, Hz: 0, MaxSessions: 2})
	first := uploadWorld(t, ts.URL, tinyWorld())
	uploadWorld(t, ts.URL, tinyWorld())
	resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(tinyWorld().Snapshot()))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", resp.StatusCode)
	}
	if got := srv.reg.CounterValue(srv.cRejected); got != 1 {
		t.Fatalf("rejections counter = %d, want 1", got)
	}
	// Deleting frees the slot.
	if !srv.Delete(first.ID) {
		t.Fatal("delete failed")
	}
	uploadWorld(t, ts.URL, tinyWorld())
}

func TestAdmissionQueueBackpressure(t *testing.T) {
	// White-box: the shard goroutine is never started, so a stuffed
	// control queue stays stuffed and the non-blocking admission enqueue
	// must reject deterministically.
	srv, err := New(Config{Shards: 1, Hz: 0, Queue: 1}, obs.NewTracer(), obs.NewRegistry())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.shards[0].control <- ctl{fn: func(*shard) {}, done: make(chan struct{})}
	_, cerr := srv.Create("", 0, tinyWorld().Snapshot())
	if cerr == nil {
		t.Fatal("create with a saturated shard queue succeeded")
	}
	ce, ok := cerr.(*createError)
	if !ok || ce.status != http.StatusTooManyRequests {
		t.Fatalf("create error = %v, want 429 createError", cerr)
	}
	if got := srv.reg.CounterValue(srv.cRejected); got != 1 {
		t.Fatalf("rejections counter = %d, want 1", got)
	}
}

func TestDeadlineDegradeThenEvict(t *testing.T) {
	reg := obs.NewRegistry()
	sb := NewShardBench(reg, time.Nanosecond, true, tinyWorld())
	sawDegraded := false
	for i := 0; i < 64 && sb.Sessions() > 0; i++ {
		sb.Tick()
		if st := sb.States(); len(st) == 1 && st[0] == "degraded" {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("session was never degraded before eviction")
	}
	if sb.Sessions() != 0 {
		t.Fatalf("session still resident after sustained deadline misses: %v", sb.States())
	}
	if got := reg.CounterValue(reg.Counter("serve/evictions")); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
	if reg.CounterValue(reg.Counter("serve/deadline_misses")) == 0 {
		t.Fatal("deadline_misses counter never incremented")
	}
}

func TestGenerousBudgetStaysActive(t *testing.T) {
	sb := NewShardBench(obs.NewRegistry(), time.Hour, true, tinyWorld())
	for i := 0; i < 16; i++ {
		sb.Tick()
	}
	if st := sb.States(); len(st) != 1 || st[0] != "active" {
		t.Fatalf("states = %v, want [active]", st)
	}
}

func TestHealthTripEvicts(t *testing.T) {
	reg := obs.NewRegistry()
	sb := NewShardBench(reg, 0, true, tinyWorld())
	sb.sh.sessions[0].health.Update(1, obs.Sample{Finite: false})
	sb.Tick()
	if sb.Sessions() != 0 {
		t.Fatalf("tripped session still resident: %v", sb.States())
	}
	if got := reg.CounterValue(reg.Counter("serve/evictions")); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
}

// TestServerStepDeterminism pins the acceptance contract: a session
// stepped N ticks in-server is snapshot-bit-identical to the same
// world stepped N times directly.
func TestServerStepDeterminism(t *testing.T) {
	const n = 20
	b, _ := workload.ByName("Ragdoll")
	direct := b.Build(0.2)
	for i := 0; i < n; i++ {
		direct.Step()
	}
	want := direct.Snapshot()

	_, ts := newTestServer(t, Config{Shards: 2, Threads: 2, Hz: 0})
	info := createScene(t, ts.URL, "Ragdoll", 0.2)
	stepSession(t, ts.URL, info.ID, n)
	got := getSnapshot(t, ts.URL, info.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("in-server stepping diverged from direct stepping: %d vs %d bytes", len(got), len(want))
	}
}

// TestMigrateDeterminism pins that snapshot/restore migration is
// transparent: step, migrate, step more — bit-identical to never
// having moved.
func TestMigrateDeterminism(t *testing.T) {
	b, _ := workload.ByName("Periodic")
	direct := b.Build(0.2)
	for i := 0; i < 20; i++ {
		direct.Step()
	}
	want := direct.Snapshot()

	srv, ts := newTestServer(t, Config{Shards: 2, Hz: 0})
	info := createScene(t, ts.URL, "Periodic", 0.2)
	stepSession(t, ts.URL, info.ID, 10)
	target := (info.Shard + 1) % 2
	resp, data := doJSON(t, "POST", ts.URL+"/sessions/"+info.ID+"/migrate", migrateRequest{Shard: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: status %d: %s", resp.StatusCode, data)
	}
	var moved SessionInfo
	json.Unmarshal(data, &moved)
	if moved.Shard != target {
		t.Fatalf("migrated to shard %d, want %d", moved.Shard, target)
	}
	stepSession(t, ts.URL, info.ID, 10)
	got := getSnapshot(t, ts.URL, info.ID)
	if !bytes.Equal(want, got) {
		t.Fatal("migration was not snapshot-transparent")
	}
	if got := srv.reg.CounterValue(srv.cMigrated); got != 1 {
		t.Fatalf("migrations counter = %d, want 1", got)
	}
}

// TestMigrateKeepsSchedulerState pins that migration hands over the
// session itself: a degraded session arrives degraded, with its miss
// count and its health window, rather than laundered back to a fresh
// active one.
func TestMigrateKeepsSchedulerState(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2, Hz: 0})
	info := uploadWorld(t, ts.URL, tinyWorld())
	var health *obs.Health
	if err := srv.onSession(info.ID, func(_ *shard, s *Session) {
		s.state, s.misses = stateDegraded, 5
		health = s.health
	}); err != nil {
		t.Fatalf("degrade: %v", err)
	}
	stepSession(t, ts.URL, info.ID, 4)

	target := (info.Shard + 1) % 2
	resp, data := doJSON(t, "POST", ts.URL+"/sessions/"+info.ID+"/migrate", migrateRequest{Shard: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: status %d: %s", resp.StatusCode, data)
	}
	var moved SessionInfo
	json.Unmarshal(data, &moved)
	if moved.Shard != target || moved.State != "degraded" || moved.Steps != 4 {
		t.Fatalf("migrate reply = %+v, want shard %d, degraded, 4 steps", moved, target)
	}
	if err := srv.onSession(info.ID, func(sh *shard, s *Session) {
		if sh.index != target || s.state != stateDegraded || s.misses != 5 || s.health != health {
			t.Errorf("after migrate: shard %d state %v misses %d same health %v; want shard %d degraded 5 true",
				sh.index, s.state, s.misses, s.health == health, target)
		}
	}); err != nil {
		t.Fatalf("after migrate: %v", err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions = %d after migrate, want 1", got)
	}
}

// TestDrainSpillRestore pins the SIGTERM contract: drain spills every
// session, a new server restores them bit-identically, and the
// manifest is consumed so the next start is empty.
func TestDrainSpillRestore(t *testing.T) {
	dir := t.TempDir()
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	srv, err := New(Config{Shards: 2, Hz: 0, SpillDir: dir}, tr, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	a := createScene(t, ts.URL, "Ragdoll", 0.2)
	stepSession(t, ts.URL, a.ID, 7)
	bID := uploadWorld(t, ts.URL, tinyWorld())
	stepSession(t, ts.URL, bID.ID, 3)
	snapA := getSnapshot(t, ts.URL, a.ID)
	snapB := getSnapshot(t, ts.URL, bID.ID)

	ts.Close()
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	srv2, err := New(Config{Shards: 2, Hz: 0, SpillDir: dir}, obs.NewTracer(), obs.NewRegistry())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Drain()
	}()
	if got := srv2.Sessions(); got != 2 {
		t.Fatalf("restored %d sessions, want 2", got)
	}
	if got := getSnapshot(t, ts2.URL, a.ID); !bytes.Equal(got, snapA) {
		t.Fatal("session A not restored bit-identically")
	}
	if got := getSnapshot(t, ts2.URL, bID.ID); !bytes.Equal(got, snapB) {
		t.Fatal("session B not restored bit-identically")
	}
	resp, data := doJSON(t, "GET", ts2.URL+"/sessions/"+a.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored info: %d", resp.StatusCode)
	}
	var info SessionInfo
	json.Unmarshal(data, &info)
	if info.Steps != 7 || info.Scene != "Ragdoll" {
		t.Fatalf("restored info = %+v, want steps=7 scene=Ragdoll", info)
	}
	// New ids must not collide with restored ones.
	c := uploadWorld(t, ts2.URL, tinyWorld())
	if c.ID == a.ID || c.ID == bID.ID {
		t.Fatalf("restored server reissued id %s", c.ID)
	}

	// A third start without a fresh drain must come up empty: the
	// manifest was consumed.
	srv3, err := New(Config{Shards: 2, Hz: 0, SpillDir: dir}, obs.NewTracer(), obs.NewRegistry())
	if err != nil {
		t.Fatalf("third start: %v", err)
	}
	if got := srv3.Sessions(); got != 0 {
		t.Fatalf("third start restored %d sessions, want 0 (manifest not consumed)", got)
	}
}

// TestRestoreDamagedSpill pins what a restart does with a spill
// directory it cannot fully restore: a fault in anything the manifest
// names — and a fleet larger than the restarting server's MaxSessions —
// is an error that names the session and leaves the manifest for a
// retry; a manifest that never got renamed into place is no manifest.
func TestRestoreDamagedSpill(t *testing.T) {
	// spillTwo drains a server holding two sessions and returns the spill
	// directory and the second session's id.
	spillTwo := func(t *testing.T) (dir, id string) {
		t.Helper()
		dir = t.TempDir()
		srv, err := New(Config{Shards: 1, Hz: 0, SpillDir: dir}, obs.NewTracer(), obs.NewRegistry())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv.Start()
		for i := 0; i < 2; i++ {
			info, err := srv.Create("", 0, tinyWorld().Snapshot())
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			id = info.ID
		}
		if err := srv.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return dir, id
	}
	restart := func(dir string, maxSessions int) (*Server, error) {
		return New(Config{Shards: 1, Hz: 0, SpillDir: dir, MaxSessions: maxSessions}, obs.NewTracer(), obs.NewRegistry())
	}

	for _, c := range []struct {
		name        string
		damage      func(snapshot string) error
		maxSessions int
	}{
		{"truncated snapshot", func(snapshot string) error { return os.Truncate(snapshot, 40) }, 0},
		{"missing snapshot", os.Remove, 0},
		{"fleet over the session limit", func(string) error { return nil }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, id := spillTwo(t)
			if err := c.damage(filepath.Join(dir, id+".paxw")); err != nil {
				t.Fatal(err)
			}
			_, err := restart(dir, c.maxSessions)
			if err == nil || !strings.Contains(err.Error(), id) {
				t.Fatalf("restart error = %v, want one naming %s", err, id)
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
				t.Fatalf("manifest gone after a failed restore: %v", err)
			}
		})
	}

	t.Run("manifest never renamed", func(t *testing.T) {
		dir, _ := spillTwo(t)
		manifest := filepath.Join(dir, manifestName)
		if err := os.Rename(manifest, manifest+".tmp"); err != nil {
			t.Fatal(err)
		}
		srv, err := restart(dir, 0)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if got := srv.Sessions(); got != 0 {
			t.Fatalf("restored %d sessions from a manifest that was never renamed into place, want 0", got)
		}
	})
}

// TestFleetTicksManySessions pins the ≥64-concurrent-sessions
// acceptance criterion: tiny sessions across all shards all make
// progress under the fixed-rate tickers.
func TestFleetTicksManySessions(t *testing.T) {
	const fleet = 64
	srv, ts := newTestServer(t, Config{Shards: 4, Hz: 200, MaxSessions: fleet})
	snap := tinyWorld().Snapshot()
	for i := 0; i < fleet; i++ {
		resp, err := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
	}
	if got := srv.Sessions(); got != fleet {
		t.Fatalf("resident sessions = %d, want %d", got, fleet)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := doJSON(t, "GET", ts.URL+"/sessions", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list: status %d", resp.StatusCode)
		}
		var list struct {
			Sessions []SessionInfo `json:"sessions"`
			Count    int           `json:"count"`
		}
		json.Unmarshal(data, &list)
		stepped := 0
		for _, si := range list.Sessions {
			if si.Steps > 0 {
				stepped++
			}
		}
		if list.Count == fleet && stepped == fleet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sessions made progress", stepped, fleet)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv.reg.CounterValue(srv.ctr.ticks) == 0 {
		t.Fatal("serve/ticks never incremented")
	}
}

// TestMetricsExposition pins that the serve counter families reach
// /metrics and the whole exposition validates.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Hz: 100})
	info := uploadWorld(t, ts.URL, tinyWorld())
	time.Sleep(50 * time.Millisecond) // let a few ticks land
	stepSession(t, ts.URL, info.ID, 1)
	const reads = 20 // shard ops beyond the create and the step
	for i := 0; i < reads; i++ {
		if resp, data := doJSON(t, "GET", ts.URL+"/sessions/"+info.ID, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("info: status %d: %s", resp.StatusCode, data)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(data); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, data)
	}
	for _, family := range []string{
		"parallax_serve_ticks_total",
		"parallax_serve_sessions_created_total",
		"parallax_serve_deadline_misses_total",
		"parallax_serve_rejections_total",
		"parallax_serve_migrations_total",
		"parallax_serve_active_sessions",
		"parallax_serve_shard0_sessions",
		"parallax_engine_steps_total",
	} {
		if !strings.Contains(string(data), family) {
			t.Fatalf("exposition missing %s:\n%s", family, data)
		}
	}
	// The shard's two op histograms: every op above waited in a control
	// queue and ran once.
	for _, hist := range []string{"parallax_serve_queue_wait_us", "parallax_serve_op_us"} {
		if !strings.Contains(string(data), "# TYPE "+hist+" histogram\n") {
			t.Fatalf("exposition has no histogram %s:\n%s", hist, data)
		}
		var count int
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, hist+"_count "); ok {
				count, _ = strconv.Atoi(v)
			}
		}
		if count < reads+2 {
			t.Errorf("%s_count = %d, want >= %d ops", hist, count, reads+2)
		}
	}
}

// TestChurnSoak hammers the full session lifecycle concurrently across
// shards — create, step, query, migrate, delete — and is part of the
// CI -race matrix. Transient 404s (a concurrent delete or migration
// won the race) and 429s (admission) are expected; errors are not.
func TestChurnSoak(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 4, Hz: 500, MaxSessions: 32, Queue: 8})
	snap := tinyWorld().Snapshot()
	const workers = 8
	done := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func(wkr int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 25; i++ {
				resp, perr := http.Post(ts.URL+"/sessions", "application/octet-stream", bytes.NewReader(snap))
				if perr != nil {
					err = perr
					return
				}
				var info SessionInfo
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue
				}
				if resp.StatusCode != http.StatusCreated {
					err = fmt.Errorf("create: status %d: %s", resp.StatusCode, body)
					return
				}
				json.Unmarshal(body, &info)

				sreq, _ := json.Marshal(stepRequest{Ticks: 3})
				resp, perr = http.Post(ts.URL+"/sessions/"+info.ID+"/step", "application/json", bytes.NewReader(sreq))
				if perr != nil {
					err = perr
					return
				}
				resp.Body.Close()

				qreq, _ := json.Marshal(queryRequest{Min: [3]float64{-10, -10, -10}, Max: [3]float64{10, 10, 10}})
				resp, perr = http.Post(ts.URL+"/sessions/"+info.ID+"/query", "application/json", bytes.NewReader(qreq))
				if perr != nil {
					err = perr
					return
				}
				resp.Body.Close()

				mreq, _ := json.Marshal(migrateRequest{Shard: (info.Shard + 1) % 4})
				resp, perr = http.Post(ts.URL+"/sessions/"+info.ID+"/migrate", "application/json", bytes.NewReader(mreq))
				if perr != nil {
					err = perr
					return
				}
				resp.Body.Close()

				if i%2 == wkr%2 {
					req, _ := http.NewRequest("DELETE", ts.URL+"/sessions/"+info.ID, nil)
					resp, perr = http.DefaultClient.Do(req)
					if perr != nil {
						err = perr
						return
					}
					resp.Body.Close()
				}
			}
		}(wkr)
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if srv.reg.CounterValue(srv.cCreated) == 0 {
		t.Fatal("soak created no sessions")
	}
}

func TestHealthEndpointDrainAware(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 1, Hz: 0})
	resp, data := doJSON(t, "GET", ts.URL+"/health", nil)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(data), "ok") {
		t.Fatalf("health = %d %q", resp.StatusCode, data)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/health", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.HasPrefix(string(data), "draining") {
		t.Fatalf("draining health = %d %q", resp.StatusCode, data)
	}
}

func TestCreateUnknownSceneRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, Hz: 0})
	resp, _ := doJSON(t, "POST", ts.URL+"/sessions", createRequest{Scene: "NoSuchScene"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scene: status %d, want 400", resp.StatusCode)
	}
}
