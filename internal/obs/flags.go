package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof serves http.DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags is the profiling/telemetry flag set paraxsim and paraxbench
// share: -serve -trace -metrics -cpuprofile -memprofile -pprof. A binary
// registers it before flag.Parse and runs its mode through Run, which
// writes the outputs on every way out — including error and
// detector-trip exits — so a profile of the run that went wrong is the
// one that is never lost.
type Flags struct {
	serve, trace, metrics, cpuProfile, memProfile, pprof string

	cpuFile *os.File // open while the CPU profile runs
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.serve, "serve", "", "serve live telemetry on `addr`: /metrics /health /trace /series.json")
	fs.StringVar(&f.trace, "trace", "", "write Chrome trace-event JSON (Perfetto) to `file`")
	fs.StringVar(&f.metrics, "metrics", "", "write the metrics as /metrics serves them (Prometheus text) to `file`")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060)")
	return f
}

// Run brackets mode, which returns the process exit code, with the
// shared flags: the pprof server, Handler(tr, reg, s, h) on -serve and
// the CPU profile come up before it; the CPU profile is stopped and the
// -trace (from tr), -metrics (WriteProm of reg and s: the bytes /metrics
// serves once the run is over) and -memprofile files are written after
// it, whatever it returned. s and h may be nil (a program with no
// single stepping world has neither). A failure to start — a busy
// -serve or -pprof port included — returns 1 before mode runs; a failure
// to write turns exit code 0 into 1. After a successful run a -serve
// endpoint stays up until the process is killed.
func (f *Flags) Run(tr *Tracer, reg *Registry, s *Series, h *Health, mode func() int) int {
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

// start brings the servers up before the CPU profile, so a busy port
// fails the run before there is a profile to stop.
func (f *Flags) start(tr *Tracer, reg *Registry, s *Series, h *Health) error {
	if f.pprof != "" {
		if err := serveOn(f.pprof, nil); err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "# pprof: http://%s/debug/pprof/\n", f.pprof)
	}
	if f.serve != "" {
		if err := serveOn(f.serve, Handler(tr, reg, s, h)); err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		endpoints := "/metrics /health /trace"
		if s != nil {
			endpoints += " /series.json"
		}
		fmt.Fprintf(os.Stderr, "# telemetry: http://%s%s\n", f.serve, endpoints)
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

// serveOn binds addr, so a busy port is the caller's error, then serves
// handler (nil: http.DefaultServeMux) there for the rest of the process.
func serveOn(addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		err := http.Serve(ln, handler) // returns only if the listener fails
		fmt.Fprintf(os.Stderr, "server on %s: %v\n", addr, err)
	}()
	return nil
}

// finish attempts every output and joins the errors.
func (f *Flags) finish(tr *Tracer, reg *Registry, s *Series) error {
	var errs []error
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, f.cpuFile.Close())
		f.cpuFile = nil
	}
	if f.trace != "" {
		errs = append(errs, writeFile(f.trace, tr.WriteTrace))
	}
	if f.metrics != "" {
		errs = append(errs, writeFile(f.metrics, func(w io.Writer) error { return WriteProm(w, reg, s) }))
	}
	if f.memProfile != "" {
		runtime.GC()
		errs = append(errs, writeFile(f.memProfile, pprof.WriteHeapProfile))
	}
	return errors.Join(errs...)
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
