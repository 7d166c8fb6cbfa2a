package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"

	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
)

// segments is how many times a run sets up afresh. The measuring time is
// split evenly between the set-ups, so that the operations come from a span
// half again as long as the time measured (this sandbox has noisy spells of
// ten seconds and more), and setup_s has repeats to choose from.
const segments = 3

// laps times the consecutive parts of one set-up, in milliseconds. Every
// set-up of a run does the same parts, so quietSeconds can take each part
// from the repeat that ran it fastest.
type laps struct {
	last time.Time
	ms   sample
}

func startLaps() *laps { return &laps{last: time.Now()} }

func (l *laps) lap() {
	now := time.Now()
	l.ms = append(l.ms, millis(now.Sub(l.last)))
	l.last = now
}

// quietSeconds is setup_s: the set-up with each of its parts taken from the
// repeat that ran it fastest, for the reason quietProfile gives. The fastest
// whole set-up of three still moved 28% between a quiet and a noisy half
// hour; a 2 s set-up has no quiet repeat then, its 10 ms parts do.
func quietSeconds(setups []sample) float64 {
	total := 0.0
	for _, ms := range quietProfile(setups) {
		total += ms
	}
	return total / 1e3
}

// sceneFixture is a settled scene ready for episodes: the snapshot every
// episode restores, and what a threads=1 reference episode from that
// snapshot produced.
type sceneFixture struct {
	cfg      sceneCfg
	snap     []byte
	digests  []uint64 // StepProfile.Digest of every reference step
	finalCRC uint32   // CRC-32 of the reference episode's final snapshot
}

// buildPlain builds the scene exactly as the repository's own programs do.
func buildPlain(cfg sceneCfg) (*world.World, error) {
	b, ok := workload.ByName(cfg.Name)
	if !ok {
		return nil, fmt.Errorf("unknown scene %q", cfg.Name)
	}
	return b.Build(cfg.Scale), nil
}

// perturb is the largest seeded change to a body's velocity, per axis in
// m/s. Contact dynamics amplify it, so each seed follows its own trajectory
// (its own digests, its own final CRC), while 1 mm/s is too little to move
// when projectiles land or what collides: ten seeds of step-mix stay within
// about 2% of each other, where 5 cm/s spread them over 8%.
const perturb = 1e-3

// buildScene builds the scene and perturbs every dynamic body's velocity
// by a seeded amount. The engine only ever sees the generated world.
func buildScene(cfg sceneCfg, seed int64) (*world.World, error) {
	w, err := buildPlain(cfg)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	for _, bd := range w.Bodies {
		dx, dy, dz := r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5
		if bd.Enabled && bd.InvMass > 0 {
			bd.LinVel.X += 2 * perturb * dx
			bd.LinVel.Y += 2 * perturb * dy
			bd.LinVel.Z += 2 * perturb * dz
		}
	}
	return w, nil
}

// newFixture is one full set-up of a step workload: build, settle,
// snapshot, and the threads=1 reference episode the measured episodes are
// checked against. It also returns how long each part took.
func newFixture(cfg sceneCfg, seed int64) (*sceneFixture, sample, error) {
	t := startLaps()
	w, err := buildScene(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	t.lap()
	for i := 0; i < cfg.Settle; i++ {
		w.Step()
		t.lap()
	}
	fx := &sceneFixture{cfg: cfg, snap: w.Snapshot(), digests: make([]uint64, cfg.Episode)}
	t.lap()
	for i := range fx.digests {
		w.Step()
		fx.digests[i] = w.Profile.Digest()
		t.lap()
	}
	fx.finalCRC = stateCRC(w.Snapshot())
	t.lap()
	return fx, t.ms, nil
}

// stateCRC is the CRC-32 of a snapshot's payload. The snapshot ends in its
// own CRC, and the CRC of any message followed by its CRC is one constant,
// so the trailer must be left out for the value to say anything.
func stateCRC(snap []byte) uint32 { return crc32.ChecksumIEEE(snap[:len(snap)-4]) }

// episode restores the fixture's snapshot into w (untimed) and runs the
// timed steps, returning each step's wall time in milliseconds. Every
// step's profile digest is checked against the reference chain, and the
// final state must be finite and snapshot to the reference CRC.
func (fx *sceneFixture) episode(w *world.World, res *result) (sample, error) {
	if err := w.Restore(fx.snap); err != nil {
		return nil, fmt.Errorf("restore settled snapshot: %w", err)
	}
	runtime.GC() // the restore's garbage is not the steps' to collect
	diverged := -1
	ms := make(sample, 0, fx.cfg.Episode)
	for i := 0; i < fx.cfg.Episode; i++ {
		t0 := time.Now()
		w.Step()
		ms = append(ms, millis(time.Since(t0)))
		if diverged < 0 && w.Profile.Digest() != fx.digests[i] {
			diverged = i
		}
	}
	if diverged >= 0 {
		res.fail("%s: step %d of an episode diverged from the threads=1 reference digest chain", fx.cfg.Name, diverged)
	}
	res.ok(fx.cfg.Episode)
	finite := true
	for _, b := range w.Bodies {
		if b.Enabled && !b.Valid() {
			finite = false
		}
	}
	res.check(finite, "%s: non-finite body state after an episode", fx.cfg.Name)
	res.check(stateCRC(w.Snapshot()) == fx.finalCRC,
		"%s: final snapshot CRC differs from the reference episode", fx.cfg.Name)
	return ms, nil
}

// newEpisodeWorld returns an empty world configured to run the fixture's
// episodes with the given thread count.
func newEpisodeWorld(threads int) *world.World {
	w := world.New()
	w.SetThreads(threads)
	return w
}

// runStep is the untraced run of a step workload: episodes of a fixed step
// count, every step one sample, as many whole episodes as fit the measuring
// time. Every set-up yields the same fixture (same seed, deterministic
// engine), so episodes of different segments are repeats of one another.
func runStep(wl workloadDef, seed int64, seconds float64) (*result, error) {
	res := newResult()
	w := newEpisodeWorld(wl.Scene.threads())
	defer w.SetThreads(1) // stops the worker pool

	var episodes, setups []sample
	for seg := 0; seg < segments; seg++ {
		fx, parts, err := newFixture(wl.Scene, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, parts)
		start, n := time.Now(), len(episodes)
		for len(episodes) == n || time.Since(start).Seconds() < seconds/segments {
			ms, err := fx.episode(w, res)
			if err != nil {
				return nil, err
			}
			episodes = append(episodes, ms)
		}
	}
	setupS := quietSeconds(setups)
	var raw sample
	for _, e := range episodes {
		raw = append(raw, e...)
	}
	mean := reportOps(res, quietProfile(episodes), raw, setupS)
	res.addExtra("realtime_factor", w.Dt*1e3/mean, "x", "Dt / op_ms_mean; 1.0 = real time")
	res.addExtra("episodes", float64(len(episodes)), "count", fmt.Sprintf("%d steps each", wl.Scene.Episode))
	return res, nil
}

// quietProfile returns, for every step of the episode, the fastest time any
// episode took for it. All episodes replay the same steps from the same
// snapshot (the digest chain proves it), so a step's work is the same in
// each and only the machine's interference differs, which only ever adds
// time. What is left is the episode as a quiet machine would run it: heavy
// steps stay heavy, a stall that hit one episode is gone. On this sandbox
// that halves the run-to-run spread of the mean and keeps a noisy minute
// from reading as a 20% regression.
func quietProfile(episodes []sample) sample {
	out := append(sample(nil), episodes[0]...)
	for _, e := range episodes[1:] {
		for i, ms := range e {
			out[i] = min(out[i], ms)
		}
	}
	return out
}

// reportOps sets the end-to-end metrics. quiet holds the operation latencies
// with the machine's interference removed as far as the workload's structure
// allows (quietProfile, quietWindows): op_ms_mean and op_ms_p95 are its mean
// and 95th percentile. raw is every measured operation as it happened; its
// distribution is printed beside them, ungated: the median (bimodal on
// serve-fleet, where it sits on the knee between "no tick in the way" and
// "behind a tick") and the tails, which swing 10-40% between runs on this
// sandbox, where 100-250 ms stalls are common. It returns op_ms_mean.
func reportOps(res *result, quiet, raw sample, setupS float64) float64 {
	q := quiet.sorted()
	res.set("op_ms_mean", q.mean())
	res.set("op_ms_p95", q.percentile(0.95))
	res.set("setup_s", setupS)
	s := raw.sorted()
	res.addExtra("ops", float64(len(s)), "count", fmt.Sprintf("measured; op_ms_mean and op_ms_p95 are over the %d quiet ones", len(q)))
	res.addExtra("raw_ms_mean", s.mean(), "ms", "every measured operation, interference included")
	res.addExtra("raw_ms_p50", s.percentile(0.50), "ms", "")
	res.addExtra("raw_ms_p90", s.percentile(0.90), "ms", "")
	tail := pickTail(len(s))
	res.addExtra("raw_ms_tail", s.percentile(tail), "ms", fmt.Sprintf("p%g, the highest percentile with >= %d of n=%d samples beyond it", tail*100, minBeyond, len(s)))
	res.addExtra("raw_ms_max", s[len(s)-1], "ms", "")
	return q.mean()
}
