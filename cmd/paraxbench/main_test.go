package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run paraxbench's main on
// its own arguments instead of the tests, so a test can observe the
// real exit code and output streams of one invocation.
const runMainEnv = "PARAXBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestUsageErrorsExit2: an unknown -exp or -bench name, a scale that is
// not > 0 or a thread count below 1 is a usage error — exit 2, a
// message naming the problem (and, for a name, listing the valid ones),
// and nothing on stdout, because the checks run before any experiment.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr []string
	}{
		{"unknown-exp", []string{"-exp", "nosuch"}, []string{`"nosuch"`, "fig2a", "ref-system"}},
		{"unknown-exp-in-list", []string{"-exp", "fig2a,nosuch"}, []string{`"nosuch"`, "fig2a"}},
		{"unknown-bench", []string{"-exp", "fig2a", "-bench", "Mix,NoSuch"}, []string{`"NoSuch"`, "Ragdoll"}},
		{"scale-zero", []string{"-scale", "0"}, []string{"-scale 0"}},
		{"threads-zero", []string{"-threads", "0"}, []string{"-threads 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runSelf(t, tc.args...)
			if code != 2 {
				t.Errorf("exit code %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout %q, want nothing before the usage checks", stdout)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr %q does not mention %s", stderr, want)
				}
			}
		})
	}
}

// runSelf runs this test binary as paraxbench with args and returns its
// exit code and output streams.
func runSelf(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}
