// Package obsflags is the profiling/telemetry flag set paraxsim and
// paraxbench share. It lives under cmd/ because it is process wiring —
// flags, an HTTP listener, the Go profilers — that only those two
// binaries link; the engine's sinks stay in package obs.
package obsflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/obs/obshttp"
)

// Flags is the shared flag set: -serve -trace -metrics -cpuprofile
// -memprofile. A binary registers it before flag.Parse and runs its mode
// through Run, which writes the outputs on every way out — including
// error and detector-trip exits — so a profile of the run that went
// wrong is the one that is never lost.
type Flags struct {
	serve, trace, metrics, cpuProfile, memProfile string

	cpuFile *os.File // open while the CPU profile runs
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.serve, "serve", "", "serve live telemetry on `addr`: /metrics /health /trace /series.json")
	fs.StringVar(&f.trace, "trace", "", "write Chrome trace-event JSON (Perfetto) to `file`")
	fs.StringVar(&f.metrics, "metrics", "", "write the metrics as /metrics serves them (Prometheus text) to `file`")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to `file` at exit")
	return f
}

// Run brackets mode, which returns the process exit code, with the
// shared flags: the -serve listener and the CPU profile come up before
// it; the CPU profile is stopped and the -trace (from tr), -metrics
// (WriteProm of reg and s: the bytes /metrics serves once the run is
// over) and -memprofile files are written after it, whatever it
// returned. s and h may be nil (a program with no single stepping world
// has neither). A failure to start — a busy -serve port included —
// returns 1 before mode runs; a failure to write turns exit code 0 into
// 1. After a successful run a -serve endpoint stays up until the
// process is killed.
func (f *Flags) Run(tr *obs.Tracer, reg *obs.Registry, s *obs.Series, h *obs.Health, mode func() int) int {
	if err := f.start(tr, reg, s, h); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := mode()
	if err := f.finish(tr, reg, s); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	if code == 0 && f.serve != "" {
		fmt.Fprintln(os.Stderr, "run complete; serving telemetry until killed")
		select {}
	}
	return code
}

// start brings the -serve listener up before the CPU profile, so a busy
// port fails the run before there is a profile to stop.
func (f *Flags) start(tr *obs.Tracer, reg *obs.Registry, s *obs.Series, h *obs.Health) error {
	if f.serve != "" {
		ln, err := net.Listen("tcp", f.serve)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		// The profilers go on this listener's own mux, beside the
		// telemetry, never on http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.Handle("/", obshttp.Handler(tr, reg, s, h))
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() {
			err := http.Serve(ln, mux) // returns only if the listener fails
			fmt.Fprintf(os.Stderr, "server on %s: %v\n", f.serve, err)
		}()
		endpoints := "/metrics /health /trace"
		if s != nil {
			endpoints += " /series.json"
		}
		fmt.Fprintf(os.Stderr, "# telemetry: http://%s%s /debug/pprof/\n", f.serve, endpoints)
	}
	if f.cpuProfile != "" {
		cf, err := os.Create(f.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return err
		}
		f.cpuFile = cf
	}
	return nil
}

// finish attempts every output and joins the errors.
func (f *Flags) finish(tr *obs.Tracer, reg *obs.Registry, s *obs.Series) error {
	var errs []error
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, f.cpuFile.Close())
		f.cpuFile = nil
	}
	if f.trace != "" {
		errs = append(errs, obs.WriteFile(f.trace, tr.WriteTrace))
	}
	if f.metrics != "" {
		errs = append(errs, obs.WriteFile(f.metrics, func(w io.Writer) error { return obs.WriteProm(w, reg, s) }))
	}
	if f.memProfile != "" {
		runtime.GC()
		errs = append(errs, obs.WriteFile(f.memProfile, pprof.WriteHeapProfile))
	}
	return errors.Join(errs...)
}
