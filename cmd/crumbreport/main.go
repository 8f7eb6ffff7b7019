// Command crumbreport re-analyses a saved crawl (produced with
// crumbcruncher -save) and prints the full report, optionally with
// alternative UID-identification settings — the prior-work baselines the
// paper compares against. Runs are read through the RunStore API, so a
// 100k-walk segment store streams walk by walk through the analysis
// pipeline instead of being decoded into memory at once.
//
// Usage:
//
//	crumbreport -in crawl.crumbs [-metrics] [-parallel N] [-two-crawlers]
//	            [-no-repeat] [-lifetime-days N] [-ratcliff-slack F]
//	            [-skip-manual]
//	crumbreport -in crawl.crumbs -walk 17        # dump one walk as JSON
//	crumbreport -in crawl.crumbs -limit 5        # dump the first 5 walks
//	crumbreport -in crawl.crumbs -walk 17 -limit 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/crawler"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crumbreport: ")

	var (
		in       = flag.String("in", "", "saved crawl: the run-store directory crumbcruncher -save wrote (required)")
		metrics  = flag.Bool("metrics", false, "emit metrics JSON instead of the text report")
		walkIdx  = flag.Int("walk", -1, "dump walk N as JSON and exit (no analysis)")
		limit    = flag.Int("limit", 0, "with -walk: dump N consecutive walks; alone: dump the first N walks")
		par      = flag.Int("parallel", 0, "analysis worker-pool size (0: the saved config's; results identical)")
		twoCrawl = flag.Bool("two-crawlers", false, "prior-work baseline: use only Safari-1 and Safari-2")
		noRepeat = flag.Bool("no-repeat", false, "disable session-ID elimination via Safari-1R")
		lifetime = flag.Int("lifetime-days", 0, "prior-work baseline: discard tokens with cookie lifetime under N days")
		slack    = flag.Float64("ratcliff-slack", 0, "prior-work baseline: Ratcliff/Obershelp similarity slack for 'same value' (e.g. 0.33)")
		skipMan  = flag.Bool("skip-manual", false, "disable the lexicon (manual review) stage")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	st, err := crumbcruncher.OpenRunStore(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // read-only handle; process is exiting

	// Spot inspection: print raw walks straight from the store — no
	// world rebuild, no analysis, O(one segment) memory.
	if *walkIdx >= 0 || *limit > 0 {
		if err := dumpWalks(os.Stdout, st, *walkIdx, *limit); err != nil {
			log.Fatal(err)
		}
		return
	}

	var opts []crumbcruncher.Option
	if *par > 0 {
		opts = append(opts, func(c *crumbcruncher.Config) { c.Parallelism = *par })
	}
	run, err := crumbcruncher.AnalyzeStore(context.Background(), st, opts...)
	if err != nil {
		log.Fatal(err)
	}

	opt := crumbcruncher.IdentifyOptions{
		DisableRepeatCrawler: *noRepeat,
		SameSlack:            *slack,
		SkipManual:           *skipMan,
	}
	if *twoCrawl {
		opt.Crawlers = []string{crawler.Safari1, crawler.Safari2}
	}
	if *lifetime > 0 {
		opt.LifetimeThreshold = time.Duration(*lifetime) * 24 * time.Hour
	}
	if *twoCrawl || *noRepeat || *lifetime > 0 || *slack > 0 || *skipMan {
		cases, stats, an := run.Reidentify(opt)
		run.Cases, run.Stats, run.Analysis = cases, stats, an
	}

	if *metrics {
		if err := crumbcruncher.WriteMetricsJSON(os.Stdout, run); err != nil {
			log.Fatal(err)
		}
		return
	}
	crumbcruncher.WriteReport(os.Stdout, run)
}

// dumpWalks prints walks from the store as indented JSON, one document
// per walk. walkIdx < 0 dumps the first limit walks by cursor; walkIdx
// >= 0 dumps max(limit, 1) consecutive walks starting there.
func dumpWalks(w io.Writer, st crumbcruncher.RunStore, walkIdx, limit int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if walkIdx < 0 {
		cur := st.Iter()
		defer cur.Close() //nolint:errcheck // read-only cursor
		for n := 0; n < limit; n++ {
			walk, err := cur.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if err := enc.Encode(walk); err != nil {
				return err
			}
		}
		return nil
	}
	if limit < 1 {
		limit = 1
	}
	for idx := walkIdx; idx < walkIdx+limit; idx++ {
		walk, err := st.Get(idx)
		if err != nil {
			return err
		}
		if err := enc.Encode(walk); err != nil {
			return err
		}
	}
	return nil
}
