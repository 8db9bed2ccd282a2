package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"time"

	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// errPartial is returned by commands whose run was truncated by a
// -timeout/-max-tasks budget: the printed results are a valid partial
// answer (marked PARTIAL on stdout) and the process exits 2, so scripts
// can tell "complete" (0), "partial" (2) and "failed" (1) apart.
var errPartial = errors.New("partial result (budget exhausted)")

// runFrame is what the local budgeted commands (discover, validate,
// repair, profile, stream) share: it declares their input, budget and
// observability flags, loads -in, starts the run's registry and turns
// how the run stopped into the exit code.
type runFrame struct {
	in          string
	workers     int
	timeout     time.Duration
	maxTasks    int64
	maxInputMB  int64
	metricsAddr string
	traceOut    string

	reg       *obs.Registry
	srv       *http.Server
	serveDone chan error
}

func newRunFrame(fs *flag.FlagSet) *runFrame {
	f := &runFrame{}
	fs.StringVar(&f.in, "in", "", `input CSV ("-" = stdin)`)
	fs.IntVar(&f.workers, "workers", runtime.NumCPU(), "parallel workers (1 = sequential); output is identical either way")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget per run (profile: per section, stream: per batch sync; 0 = unlimited); on expiry the completed prefix is printed with a PARTIAL marker and the exit code is 2")
	fs.Int64Var(&f.maxTasks, "max-tasks", 0, "task budget, scoped like -timeout (0 = unlimited); truncation is deterministic for any -workers value")
	fs.Int64Var(&f.maxInputMB, "max-input-mb", 0, "reject input CSVs larger than this many MiB (0 = unlimited)")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve expvar (/debug/vars), pprof (/debug/pprof/) and Prometheus text (/metrics) on this address for the run's duration")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the run's span events as JSONL to this file")
	return f
}

// run loads -in, starts observability, runs body under the flags'
// Exec and finishes with what body returns, on every exit path.
func (f *runFrame) run(body func(r *relation.Relation, x engine.Exec) (engine.Stop, error)) error {
	if f.in == "" {
		return errors.New("-in required")
	}
	r, err := loadCSV(f.in, f.maxInputMB)
	if err != nil {
		return err
	}
	x, err := f.start()
	if err != nil {
		return err
	}
	stop, err := body(r, x)
	return f.finish(stop, err)
}

// runParams passes x to the shared runners of internal/server.
func runParams(x engine.Exec) server.RunParams {
	return server.RunParams{Workers: x.Workers, Budget: x.Budget, Obs: x.Obs}
}

// loadCSV reads a CSV, or stdin for "-", under the byte bound, inferring
// numeric columns through the same relation.ReadCSVAuto path the
// server's request decoder uses, so a file and the same bytes POSTed to
// `deptool serve` type identically. A bounded read stops one byte past
// the bound, which is all ReadCSVAuto needs to reject the input, so a
// file and stdin hold at most that much and fail with the same error.
func loadCSV(path string, maxInputMB int64) (*relation.Relation, error) {
	lim := relation.Limits{MaxBytes: maxInputMB << 20}
	src := io.Reader(os.Stdin)
	if path == "-" {
		path = "stdin"
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	if lim.MaxBytes > 0 {
		src = io.LimitReader(src, lim.MaxBytes+1)
	}
	data, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return relation.ReadCSVAuto(path, data, lim)
}

// expvarOnce guards the process-wide expvar publication: expvar.Publish
// panics on duplicate names, and tests invoke commands repeatedly in one
// process.
var expvarOnce sync.Once

// metricsAddrBound records the metrics listener's resolved address (the
// kernel picks the port when -metrics-addr ends in ":0"); tests read it.
var metricsAddrBound string

// start creates the run's registry, brings up the metrics server when
// -metrics-addr is set, and returns the run's Exec. The registry feeds
// the run regardless of the flags, so a trace/metrics request never
// changes the executed path — only whether the collected data is
// exported.
func (f *runFrame) start() (engine.Exec, error) {
	reg := obs.New()
	if f.metricsAddr != "" {
		expvarOnce.Do(func() {
			expvar.Publish("deptree", expvar.Func(func() any { return reg.Snapshot() }))
		})
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		ln, err := net.Listen("tcp", f.metricsAddr)
		if err != nil {
			return engine.Exec{}, err
		}
		metricsAddrBound = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", ln.Addr())
		f.srv = &http.Server{Handler: mux}
		f.serveDone = make(chan error, 1)
		go func() { f.serveDone <- f.srv.Serve(ln) }()
	}
	f.reg = reg
	return engine.Exec{Workers: f.workers, Budget: engine.Budget{Timeout: f.timeout, MaxTasks: f.maxTasks}, Obs: reg}, nil
}

// finish ends a started run: it drains the metrics listener through
// http.Server.Shutdown and waits for its serve goroutine, so no run
// (including one interrupted by SIGTERM through rootCtx) leaks either,
// then writes -trace-out. It returns the run's own error if any, else
// errPartial for a partial stop, else the teardown's error.
func (f *runFrame) finish(stop engine.Stop, err error) error {
	if f.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := f.srv.Shutdown(sctx); err != nil {
			f.srv.Close()
		}
		cancel()
		<-f.serveDone
	}
	var terr error
	if f.traceOut != "" {
		terr = writeOut(f.traceOut, f.reg.WriteTrace)
	}
	switch {
	case err != nil:
		return err
	case stop.Partial:
		return errPartial
	}
	return terr
}

// writeOut hands write the -out destination of gen and repair: the named
// file, or stdout when path is empty. It returns the file's Close error,
// which is where a failed flush of the written data shows.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
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
