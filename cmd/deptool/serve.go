package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/server"
)

// cmdServe runs the hardened discovery service: the registry's 15
// discoverers, validate and repair behind HTTP with admission control, per-endpoint
// circuit breakers and graceful drain. It serves until rootCtx is
// cancelled (SIGTERM/SIGINT), then drains: /readyz flips to 503, new
// work is rejected, in-flight requests finish within -drain-timeout.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", runtime.NumCPU(), "engine worker-pool size and per-request worker cap")
	maxConc := fs.Int64("max-concurrency", 0, "admission capacity in worker units (0 = -workers)")
	maxQueue := fs.Int("queue", 8, "admission wait-queue bound in requests; beyond it requests are shed with 429")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request wall-clock budget")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "largest per-request budget a client may ask for")
	maxTasks := fs.Int64("max-tasks", 0, "per-request engine task-budget cap (0 = unlimited)")
	maxInputMB := fs.Int64("max-input-mb", 16, "reject request CSVs larger than this many MiB")
	maxRows := fs.Int("max-rows", 0, "reject request CSVs with more data rows than this (0 = unlimited)")
	drainGrace := fs.Duration("drain-grace", 200*time.Millisecond, "how long the listener keeps answering after readyz flips to 503")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long drain waits for in-flight requests before cancelling them")
	brThreshold := fs.Int("breaker-threshold", 5, "consecutive engine faults that open an endpoint's circuit breaker")
	brBackoff := fs.Duration("breaker-backoff", 500*time.Millisecond, "first breaker open interval; doubles per failed probe up to 30s")
	jobsDir := fs.String("jobs-dir", "", "directory for the async job WAL; enables durable /v1/jobs (empty = in-memory jobs, lost on restart)")
	jobRunners := fs.Int("job-runners", 0, "async job runner goroutines (0 = default 2)")
	jobQueue := fs.Int("job-queue", 0, "async job queue bound (0 = default 64)")
	jobMaxAttempts := fs.Int("job-max-attempts", 0, "max attempts per job before a transient failure becomes terminal (0 = default 3)")
	streamSessions := fs.Int("stream-sessions", 0, "max live /v1/stream sessions (0 = default 16)")
	walQuarantine := fs.Bool("wal-quarantine", false, "on WAL corruption at boot, quarantine the damaged suffix to <wal>.quarantine and serve the verified prefix instead of refusing to start")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var store jobs.Store
	var streamWAL string
	if *jobsDir != "" {
		if err := os.MkdirAll(*jobsDir, 0o755); err != nil {
			return fmt.Errorf("jobs-dir: %w", err)
		}
		wal, err := jobs.OpenWAL(filepath.Join(*jobsDir, "jobs.wal"), jobs.WALOptions{Quarantine: *walQuarantine})
		if err != nil {
			return fmt.Errorf("open job WAL: %w", err)
		}
		store = wal
		// Stream sessions share the durability directory: same flag, same
		// crash-safety story.
		streamWAL = filepath.Join(*jobsDir, "stream.wal")
	}
	srv := server.New(server.Config{
		Workers:           *workers,
		MaxConcurrency:    *maxConc,
		MaxQueue:          *maxQueue,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxTasks:          *maxTasks,
		MaxInputBytes:     *maxInputMB << 20,
		MaxRows:           *maxRows,
		DrainGrace:        *drainGrace,
		DrainTimeout:      *drainTimeout,
		BreakerThreshold:  *brThreshold,
		BreakerBackoff:    *brBackoff,
		JobStore:          store,
		JobQueue:          *jobQueue,
		JobRunners:        *jobRunners,
		JobMaxAttempts:    *jobMaxAttempts,
		StreamMaxSessions: *streamSessions,
		StreamWALPath:     streamWAL,
		WALQuarantine:     *walQuarantine,
		Obs:               obs.New(),
	})
	if err := srv.JobsErr(); err != nil {
		if store != nil {
			store.Close()
		}
		return fmt.Errorf("job subsystem: %w", err)
	}
	if err := srv.StreamErr(); err != nil {
		srv.Close()
		if store != nil {
			store.Close()
		}
		return fmt.Errorf("stream subsystem: %w", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "deptool serve: listening on http://%s (SIGTERM drains)\n", ln.Addr())
	return srv.Run(rootCtx, ln)
}
