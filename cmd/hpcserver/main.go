// Command hpcserver serves experiment databases over HTTP: a lifecycle
// catalog of databases (ingested at runtime, opened on demand under a
// memory budget, republished atomically) and any number of concurrent
// presentation sessions, each speaking the same command grammar as
// `hpcviewer -interactive`. It is the fleet-scale frontend over
// internal/engine and internal/catalog — thousands of sessions across
// hundreds of databases in one process.
//
// Usage:
//
//	hpcserver -db s3d.db -addr :7007
//	hpcserver -catalog-dir /var/lib/hpc -spool /var/spool/hpc -mem-budget 2GiB
//
// then:
//
//	curl -X POST localhost:7007/v1/sessions -d '{"db":"s3d/run1"}' -> {"token":"..."}
//	curl -X POST localhost:7007/v1/sessions/T/exec \
//	     -d '{"line":"hot CYCLES"}'                    -> {"output":"..."}
//	curl -X POST 'localhost:7007/v1/ingest?service=s3d&run=run1&ts=42' \
//	     --data-binary @s3d.db
//	curl -X DELETE localhost:7007/v1/sessions/T
//
// SIGINT/SIGTERM flip /readyz to 503, drain in-flight requests, then close
// every session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpcserver:", err)
		os.Exit(1)
	}
}

// compareFlags collects repeatable -compare name=path entries.
type compareFlags []string

func (c *compareFlags) String() string     { return strings.Join(*c, ";") }
func (c *compareFlags) Set(s string) error { *c = append(*c, s); return nil }

// parseBytes parses a human byte size: plain digits, or a K/M/G(i)B suffix.
func parseBytes(s string) (int64, error) {
	if s == "" || s == "0" {
		return 0, nil
	}
	mult := int64(1)
	up := strings.ToUpper(strings.TrimSpace(s))
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000_000}, {"GB", 1000_000_000},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(up, suf.name) {
			mult = suf.mult
			up = strings.TrimSuffix(up, suf.name)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(up), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	// A wrapped product would read as negative or small, and the catalog
	// takes a budget <= 0 as no budget at all.
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows int64", s)
	}
	return n * mult, nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcserver", flag.ContinueOnError)
	dflags := diag.Register(fs)
	db := fs.String("db", "", "default experiment database (optional when -catalog-dir/-spool supply databases)")
	addr := fs.String("addr", ":7007", "listen address")
	var compares compareFlags
	fs.Var(&compares, "compare", "extra database name=path pinned into the catalog (repeatable)")
	workload := fs.String("w", "", "workload name, to attach pseudo-source for the src command")
	residency := fs.Bool("residency", false, "debug: report mapped-vs-resident bytes per mapped (v3) snapshot at startup")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request handler deadline (a session exceeding it is killed, not the process)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain window")
	catalogDir := fs.String("catalog-dir", "", "directory where ingested databases are stored and reloaded on restart (default: a temp dir)")
	spool := fs.String("spool", "", "watched spool directory: databases dropped here are ingested and deleted")
	spoolInterval := fs.Duration("spool-interval", 2*time.Second, "spool poll interval")
	memBudget := fs.String("mem-budget", "0", "catalog memory budget for open snapshots (e.g. 2GiB; 0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 64, "concurrently executing requests before queueing")
	maxQueue := fs.Int("max-queue", 256, "queued requests before shedding with 503")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "max time a request waits in the admission queue before 429")
	maxBody := fs.String("max-body", "1MiB", "control-plane POST body cap (oversized -> 413)")
	maxIngest := fs.String("max-ingest", "1GiB", "ingest body cap (oversized -> 413)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	bodyCap, err := parseBytes(*maxBody)
	if err != nil {
		return fmt.Errorf("-max-body: %w", err)
	}
	ingestCap, err := parseBytes(*maxIngest)
	if err != nil {
		return fmt.Errorf("-max-ingest: %w", err)
	}
	if *db == "" && *catalogDir == "" && *spool == "" && len(compares) == 0 {
		return fmt.Errorf("nothing to serve: give -db, -catalog-dir, -spool or -compare")
	}
	stopDiag, err := dflags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if derr := stopDiag(); derr != nil && err == nil {
			err = derr
		}
	}()

	dir := *catalogDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "hpcserver-catalog-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	cat := catalog.New(catalog.Config{
		Dir:       dir,
		MemBudget: budget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hpcserver: "+format+"\n", args...)
		},
	})
	defer cat.Close()
	if n, lerr := cat.LoadDir(); lerr != nil {
		return lerr
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "hpcserver: reloaded %d database(s) from %s\n", n, dir)
	}

	reportResidency := func(name string, sn *engine.Snapshot) {
		if !*residency {
			return
		}
		lines := sn.Residency()
		if lines == nil {
			lines = []string{"database is not mapped"}
		}
		for i, line := range lines {
			fmt.Fprintf(os.Stderr, "hpcserver: residency %s: %s%s\n", name, strings.Repeat("  ", min(i, 1)), line)
		}
	}

	// The default database, shared by every session that names no catalog
	// entry. The engine seals it immutable.
	var snap *engine.Snapshot
	if *db != "" {
		if snap, err = engine.Open(*db); err != nil {
			return err
		}
		for _, note := range snap.Notes() {
			fmt.Fprintf(os.Stderr, "hpcserver: warning: %s\n", note)
		}
		reportResidency(*db, snap)
	}
	var source *prog.Program
	if *workload != "" {
		spec, err := workloads.ByName(*workload)
		if err != nil {
			return err
		}
		source = spec.Program
	}
	srv := server.NewWithConfig(snap, server.Config{
		Source:         source,
		Catalog:        cat,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		ExecTimeout:    *reqTimeout,
		MaxBodyBytes:   bodyCap,
		MaxIngestBytes: ingestCap,
	})
	defer srv.Close()
	for _, c := range compares {
		name, path, ok := strings.Cut(c, "=")
		if !ok {
			return fmt.Errorf("bad -compare %q (want name=path)", c)
		}
		other, err := engine.Open(path)
		if err != nil {
			return err
		}
		if err := srv.AddSnapshot(name, other); err != nil {
			return err
		}
		reportResidency(name, other)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *spool != "" {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			return err
		}
		go cat.WatchSpool(ctx, *spool, *spoolInterval)
	}

	hs := &http.Server{
		Addr: *addr,
		// The server kills individual sessions at the exec deadline; the
		// TimeoutHandler above it is the backstop for everything else,
		// with headroom so typed errors win the race.
		Handler:           http.TimeoutHandler(srv.Handler(), *reqTimeout+5*time.Second, "request timed out\n"),
		ReadHeaderTimeout: 5 * time.Second, // slowloris defense
		ReadTimeout:       *reqTimeout,
		WriteTimeout:      *reqTimeout + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	errc := make(chan error, 1)
	go func() {
		if lerr := hs.ListenAndServe(); !errors.Is(lerr, http.ErrServerClosed) {
			errc <- lerr
			return
		}
		errc <- nil
	}()
	what := *db
	if what == "" {
		what = fmt.Sprintf("catalog %s", dir)
	}
	fmt.Fprintf(os.Stderr, "hpcserver: serving %s on %s\n", what, *addr)

	select {
	case lerr := <-errc:
		return lerr
	case <-ctx.Done():
	}
	stop()
	// Drain: stop admitting (readyz 503 tells the balancer), let in-flight
	// requests finish, then close sessions.
	srv.StartDrain()
	fmt.Fprintln(os.Stderr, "hpcserver: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if serr := hs.Shutdown(dctx); serr != nil {
		// Drain window elapsed; cut the stragglers off.
		hs.Close()
	}
	return <-errc
}
