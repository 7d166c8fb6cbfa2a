package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"github.com/parallax-arch/parallax/internal/exp"
)

// harnessScale is the suite scale of harness-sweep: the paper's own.
const harnessScale = 1.0

// reportedExperiments get their own exp.<id>_s line: the twelve that took
// over 0.3 s when the workload was chosen. The others are pooled into
// exp.rest_s.
var reportedExperiments = map[string]bool{
	"fig2a": true, "fig2b": true, "fig3b": true, "fig4a": true, "fig4b": true, "fig5b": true,
	"fig6b": true, "fig9a": true, "ext-prefetch": true, "abl-partition": true, "abl-broadphase": true, "ref-system": true,
}

// capturedSuite is one full set-up of harness-sweep: the suite with every
// benchmark captured (built, warmed and profiled by the real engine).
func capturedSuite() *exp.Suite {
	s := exp.NewSuite(harnessScale)
	s.Threads = machineThreads()
	s.Workloads()
	return s
}

// sweep is what one pass over every experiment produced.
type sweep struct {
	seconds float64            // wall time of the whole sweep
	perExp  map[string]float64 // seconds per reported experiment
	rest    float64            // seconds of the experiments pooled into exp.rest_s
	crc     uint32             // CRC-32 of the timing-stripped output
}

// sweepOnce runs every experiment once, in registry order, one at a time
// (each still fans its grid out over the suite's worker pool). Every
// experiment must print a non-empty section free of NaN and Inf. log, if
// non-nil, gets a span per experiment.
func sweepOnce(s *exp.Suite, res *result, log *spanLog) sweep {
	sw := sweep{perExp: make(map[string]float64)}
	var all bytes.Buffer
	for _, id := range exp.IDs() {
		var span int32
		if log != nil {
			span = log.begin("exp." + id)
		}
		var buf bytes.Buffer
		t0 := time.Now()
		err := s.RunIDs(&buf, id)
		sec := time.Since(t0).Seconds()
		if log != nil {
			log.end(span)
		}
		sw.seconds += sec
		if reportedExperiments[id] {
			sw.perExp[id] = sec
		} else {
			sw.rest += sec
		}
		out := exp.StripTimings(buf.String())
		body := strings.TrimSpace(out[strings.Index(out, "\n")+1:]) // drop the "==== id ====" header
		res.check(err == nil && body != "", "experiment %s printed nothing (err %v)", id, err)
		res.check(!strings.Contains(out, "NaN") && !strings.Contains(out, "Inf"), "experiment %s printed NaN or Inf", id)
		all.WriteString(out)
	}
	sw.crc = crc32.ChecksumIEEE(all.Bytes())
	return sw
}

// extras prints the sweep's breakdown beside the contract metrics.
func (sw sweep) extras(res *result) {
	for id, sec := range sw.perExp {
		res.addExtra("exp."+id+"_s", sec, "s", "")
	}
	res.addExtra("exp.rest_s", sw.rest, "s", fmt.Sprintf("the other %d experiments", len(exp.IDs())-len(reportedExperiments)))
	res.addExtra("exp.sweep_s", sw.seconds, "s", "all experiments after capture")
	res.addExtra("exp.output_crc32", float64(sw.crc), "count", "CRC-32 of the timing-stripped output; a host-time change must leave it identical")
}

// captureRepeats is how often harness-sweep repeats its half-second set-up,
// which runs as one concurrent part: twice the repeats make up for having no
// parts to choose among.
const captureRepeats = 2 * segments

// runHarness is the untraced harness-sweep run. One operation is a whole
// sweep; a second sweep, when the measuring time allows one, gets a fresh
// capture so that the suite's memo caches never carry over.
func runHarness(wl workloadDef, seed int64, seconds float64) (*result, error) {
	res := newResult()
	var (
		suite    *exp.Suite
		setups   []sample
		sweeps   sample
		measured float64
		last     sweep
	)
	capture := func() {
		t := startLaps()
		suite = capturedSuite()
		t.lap()
		setups = append(setups, t.ms)
	}
	for len(setups) < captureRepeats {
		capture()
	}
	n, captureS := suite.CaptureStats()
	res.check(n == suite.NumBenchmarks(), "%d of %d benchmarks captured", n, suite.NumBenchmarks())
	res.addExtra("exp.capture_s", captureS.Seconds(), "s", "summed per-benchmark capture time of the kept suite")

	for len(sweeps) == 0 || measured < seconds {
		if len(sweeps) > 0 {
			capture()
		}
		sw := sweepOnce(suite, res, nil)
		res.check(len(sweeps) == 0 || sw.crc == last.crc, "two sweeps of one run printed different output (CRC %08x vs %08x)", sw.crc, last.crc)
		sweeps = append(sweeps, sw.seconds*1e3)
		measured += sw.seconds
		last = sw
	}
	last.extras(res)
	// The fastest sweep is the quiet one; at the contract's 10 s there is
	// only one.
	reportOps(res, sweeps.sorted()[:1], sweeps, quietSeconds(setups))
	return res, nil
}
