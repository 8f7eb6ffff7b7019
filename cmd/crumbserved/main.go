// Command crumbserved runs CrumbCruncher as a resident multi-tenant
// service: a long-lived process accepting crawl and reanalysis jobs
// over an HTTP/JSON API, running each on a worker pool fed by a FIFO
// queue exactly as the crumbcruncher and crumbreport CLIs would, and
// serving results, telemetry and persisted runs. A submission that
// finds the queue full gets 503 + Retry-After.
//
// Usage:
//
//	crumbserved [-addr :8080] [-workers N] [-queue N] [-store DIR]
//	            [-pprof localhost:6060] [-drain-grace D]
//
// Quickstart:
//
//	crumbserved -addr :8080 -store runs/ &
//	curl -X POST localhost:8080/jobs -d '{"small":true,"seed":7,"walks":20}'
//	curl localhost:8080/jobs/job-000001
//	curl localhost:8080/jobs/job-000001/report
//
// On SIGTERM/SIGINT the server drains: new submissions get 503 +
// Retry-After, queued jobs are canceled, in-flight jobs stop with their
// walks so far in their run store (unfinalized, when a -store is
// configured) and the process exits 0 once idle or after -drain-grace,
// whichever comes first.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crumbcruncher/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crumbserved: ")

	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 2, "concurrent job executors")
		queueCap   = flag.Int("queue", 64, "jobs that may wait for a worker; a submission beyond them gets 503")
		storeDir   = flag.String("store", "", "record each crawl job's run store under this directory and list completed runs")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "maximum time to wait for in-flight jobs to drain on shutdown")
	)
	flag.Parse()
	if *queueCap < 1 {
		// The queue is always bounded. serve.New would take a
		// non-positive size as its default of 64, while the
		// "listening" line printed the flag's value.
		log.Fatalf("-queue must be at least 1, got %d", *queueCap)
	}

	srv, err := serve.New(serve.Options{
		Workers:       *workers,
		QueueCapacity: *queueCap,
		StoreDir:      *storeDir,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		bound, stopDebug, err := serve.StartDebug(*pprofAddr, nil)
		if err != nil {
			log.Fatalf("pprof server: %v", err)
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", bound)
	}

	// Bind synchronously: a bad -addr is a startup error, and by the
	// time the "listening" line prints, requests are being accepted.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "listening on http://%s (workers=%d queue=%d store=%q)\n",
		ln.Addr(), *workers, *queueCap, *storeDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "draining: rejecting new jobs, interrupting in-flight jobs...")
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Drain(grace); err != nil {
		log.Printf("drain: %v", err)
	}
	// The API stays up through the drain so late submissions observe
	// 503 + Retry-After instead of connection refused; shut it down
	// only once the worker pool is idle.
	if err := httpSrv.Shutdown(grace); err != nil {
		httpSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "drained: exiting")
}
