package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck runs every workload the way the driver does — one process
// per run — twice on one seed and once on the next with tracing off, and
// twice on the first seed with tracing on. It prints each end-to-end
// metric's relative spread over the three runs (the driver's figure, which
// for three values is their range over their median) against its bound, and
// fails when a run reports a wrong output or when a count the program must
// reproduce exactly differs between the two same-seed traced runs.
func runSelfcheck(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "paraxperf: %v\n", err)
		return 1
	}
	child := func(wl string, seed int64, trace int) (jsonResult, error) {
		cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return jsonResult{}, fmt.Errorf("%s seed %d trace %d: %w", wl, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r jsonResult
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return r, fmt.Errorf("%s seed %d trace %d: last line is not the result: %w", wl, seed, trace, err)
		}
		if !r.Correct {
			return r, fmt.Errorf("%s seed %d trace %d: %d of %d operations failed:\n%s", wl, seed, trace, r.Failed, r.Attempted, out)
		}
		return r, nil
	}

	bad := 0
	fmt.Printf("%-14s %-28s %12s %12s %12s %8s %6s\n", "workload", "metric", "seed", "seed again", "seed+1", "spread", "bound")
	for _, wl := range workloads {
		var runs []jsonResult
		for _, s := range []int64{seed, seed, seed + 1} {
			r, err := child(wl.Name, s, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paraxperf: selfcheck: %v\n", err)
				return 1
			}
			runs = append(runs, r)
		}
		for _, d := range endToEnd {
			v := []float64{runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value, runs[2].Metrics[d.Name].Value}
			rel := spread(v)
			note := ""
			if rel > d.Bound {
				note = "  spread exceeds bound"
			}
			fmt.Printf("%-14s %-28s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n", wl.Name, d.Name, v[0], v[1], v[2], rel*100, d.Bound*100, note)
		}
		var traced [2]jsonResult
		for i := range traced {
			if traced[i], err = child(wl.Name, seed, 1); err != nil {
				fmt.Fprintf(os.Stderr, "paraxperf: selfcheck: %v\n", err)
				return 1
			}
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value
			verdict := "identical"
			if a != b {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-28s %12.0f %12.0f %12s %s\n", wl.Name, d.Name, a, b, "", verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck FAILED: %d exact counts differ between same-seed runs\n", bad)
		return 1
	}
	fmt.Println("selfcheck ok: every run correct, every exact count identical between same-seed runs")
	return 0
}
