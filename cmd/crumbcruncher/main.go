// Command crumbcruncher runs the full measurement pipeline: build the
// synthetic web, crawl it with the four synchronized crawlers, identify
// smuggled UIDs and print the paper's tables and figures.
//
// Usage:
//
//	crumbcruncher [-seed N] [-sites N] [-walks N] [-steps N] [-parallel N]
//	              [-machines N] [-small] [-lazy] [-save run.crumbs]
//	              [-out report.txt] [-trace trace.jsonl] [-progress]
//	              [-pprof localhost:6060] [-retries N] [-deadline D]
//	              [-connect-fail R] [-transient-fail R] [-degrade R]
//	              [-spike R]
//
// -save names the run's store, which is also its walk log: the crawl
// appends each walk to it as the walk finishes, and the store is
// finalized when the run succeeds. An interrupted run (Ctrl-C or a
// crash) leaves the store unfinalized, and re-running with the same
// flags and -save path resumes it. A store is a directory; a regular
// file at the -save path is refused, never overwritten. A store torn by
// a crash mid-write recovers automatically (the partial record is
// dropped). Damage is moved aside rather than trusted: a damaged
// sealed segment sends the whole store to "<path>.corrupt" and the run
// restarts from scratch, a damaged active segment goes to
// "<segment>.corrupt" and the run re-crawls its walks. A finalized
// store, or one recorded with other flags, is refused before the crawl
// starts. Walk appends are never fsynced: a walk a crash loses is
// re-crawled on resume, with the same result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crumbcruncher: ")

	var (
		seed      = flag.Int64("seed", 1, "world seed (every run with the same seed and flags is identical)")
		sites     = flag.Int("sites", 0, "number of content sites (0: config default)")
		walks     = flag.Int("walks", 0, "number of random walks (0: config default)")
		steps     = flag.Int("steps", 0, "steps per walk (0: the paper's 10)")
		parallel  = flag.Int("parallel", 0, "worker-pool size for the crawl and the post-crawl analysis (0: config default)")
		machines  = flag.Int("machines", 0, "simulated crawl machines walks are spread across (0: config default)")
		small     = flag.Bool("small", false, "use the small demo configuration")
		lazy      = flag.Bool("lazy", false, "generate sites on first visit instead of upfront (identical results; million-domain worlds in laptop memory)")
		savePath  = flag.String("save", "", "record the crawl to this run store (a directory of gzip segments, e.g. run.crumbs) as it runs, resuming it if an interrupted run left it")
		outPath   = flag.String("out", "", "write the report here instead of stdout")
		metrics   = flag.Bool("metrics", false, "emit machine-readable JSON metrics instead of the text report")
		traceOut  = flag.String("trace", "", "enable telemetry and export the span trace to this JSONL file (inspect with crumbtrace)")
		progress  = flag.Bool("progress", false, "enable telemetry and report crawl progress on stderr")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		retries   = flag.Int("retries", 0, "max attempts per navigation/click with virtual-clock exponential backoff (0: no retries)")
		deadline  = flag.Duration("deadline", 0, "per-request virtual-clock deadline (0: none)")
		connFail  = flag.Float64("connect-fail", -1, "fraction of domains refusing connections (-1: config default, paper 3.3%)")
		transient = flag.Float64("transient-fail", 0, "fraction of domains whose first attempts fail then recover")
		degrade   = flag.Float64("degrade", 0, "fraction of domains answering first attempts with 502/503 + Retry-After")
		spike     = flag.Float64("spike", 0, "fraction of domains with a deadline-blowing first-attempt latency spike")
	)
	flag.Parse()

	cfg := crumbcruncher.DefaultConfig()
	if *small {
		cfg = crumbcruncher.SmallConfig()
	}
	cfg.World.Seed = *seed
	if *sites > 0 {
		cfg.World.NumSites = *sites
	}
	if *walks > 0 {
		cfg.Walks = *walks
	}
	if *steps > 0 {
		cfg.StepsPerWalk = *steps
	}
	if *parallel > 0 {
		cfg.Parallelism = *parallel
	}
	if *machines > 0 {
		cfg.Machines = *machines
	}
	cfg.World.Lazy = *lazy
	if *retries > 0 {
		cfg.Retry = crumbcruncher.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = *retries
	}
	if *deadline > 0 {
		cfg.RequestDeadline = *deadline
	}
	if *connFail >= 0 {
		cfg.World.ConnectFailRate = *connFail
	}
	cfg.World.TransientFailRate = *transient
	cfg.World.HTTPDegradeRate = *degrade
	cfg.World.LatencySpikeRate = *spike

	// Telemetry is observation-only: results are identical with it on or
	// off, so it is attached exactly when some flag consumes it.
	var opts []crumbcruncher.Option
	var tel *crumbcruncher.Telemetry
	if *traceOut != "" || *progress {
		tel = crumbcruncher.NewTelemetry()
		opts = append(opts, crumbcruncher.WithTelemetry(tel))
	}

	var st crumbcruncher.RunStore
	if *savePath != "" {
		var err error
		st, err = crumbcruncher.OpenWalkLog(*savePath, cfg)
		if errors.Is(err, runstore.ErrCorrupt) {
			// The damaged store has been quarantined; crawl from
			// scratch rather than resume from corrupt walks.
			fmt.Fprintf(os.Stderr, "run store damaged, starting fresh: %v\n", err)
			st, err = crumbcruncher.OpenWalkLog(*savePath, cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		if n := st.Walks(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d walks already completed in %s\n", n, *savePath)
		}
		opts = append(opts, crumbcruncher.WithRunStore(st))
	}
	if *pprofAddr != "" {
		// Bind synchronously so a bad address is a startup error, not a
		// log line racing the run; the listener closes with the process.
		bound, stopDebug, err := serve.StartDebug(*pprofAddr, nil)
		if err != nil {
			log.Fatalf("pprof server: %v", err)
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", bound)
	}

	start := time.Now() // CLI progress line; stderr only, never in results
	fmt.Fprintf(os.Stderr, "crawling %d walks over %d sites (seed %d)...\n",
		cfg.Walks, cfg.World.NumSites, cfg.World.Seed)
	stopProgress := func() {}
	if *progress {
		var latest atomic.Value
		latest.Store(crumbcruncher.Progress{})
		opts = append(opts, crumbcruncher.WithProgress(func(p crumbcruncher.Progress) { latest.Store(p) }))
		stopProgress = reportProgress(tel, &latest)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	run, err := crumbcruncher.NewRunner(cfg, opts...).Run(ctx)
	stopSignals()
	stopProgress()
	if st != nil {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted: crawl drained gracefully")
		if *savePath != "" {
			fmt.Fprintf(os.Stderr, "re-run with -save %s to continue\n", *savePath)
		} else {
			fmt.Fprintln(os.Stderr, "hint: run with -save run.crumbs to make interrupted crawls resumable")
		}
		os.Exit(1)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "crawl + analysis finished in %v: %d steps, %d candidate tokens, %d confirmed UIDs\n",
		time.Since(start).Round(time.Millisecond), run.Dataset.StepCount(), len(run.Candidates), len(run.Cases))
	if *savePath != "" {
		fmt.Fprintf(os.Stderr, "run saved to %s\n", *savePath)
	}
	if *traceOut != "" {
		if err := crumbcruncher.WriteTrace(*traceOut, tel); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (%d spans)\n", *traceOut, tel.Tracer().Total())
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if *metrics {
		if err := crumbcruncher.WriteMetricsJSON(out, run); err != nil {
			log.Fatal(err)
		}
	} else {
		crumbcruncher.WriteReport(out, run)
	}
}

// reportProgress prints crawl progress to stderr once a second until the
// returned stop function is called. It reads only the runner's Progress
// snapshots and telemetry instruments, so it never perturbs the crawl.
func reportProgress(tel *crumbcruncher.Telemetry, latest *atomic.Value) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(time.Second) // real once-a-second progress cadence on stderr
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				p := latest.Load().(crumbcruncher.Progress)
				reqs := tel.Counter("netsim.requests").Value()
				fails := tel.Counter("netsim.failures").Value()
				fmt.Fprintf(os.Stderr, "progress: %d/%d walks crawled, %d analyzed (queue %d), %d requests (%d failed)\n",
					p.WalksDone, p.WalksTotal, p.WalksAnalyzed, p.QueueDepth, reqs, fails)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
