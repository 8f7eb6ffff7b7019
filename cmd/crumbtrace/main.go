// Command crumbtrace summarizes a telemetry trace exported by
// crumbcruncher -trace: per-layer span counts and wall-time histograms,
// the slowest spans, and the injected-fault timeline (in virtual-clock
// order when the spans carry virtual time, in trace order otherwise).
//
// Usage:
//
//	crumbtrace [-top N] [-json] trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"crumbcruncher/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crumbtrace: ")

	var (
		top     = flag.Int("top", 10, "number of slowest spans to show")
		asJSON  = flag.Bool("json", false, "emit the summary as JSON instead of text")
		maxRows = flag.Int("faults", 20, "number of fault-timeline rows to show (0: all)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crumbtrace [-top N] [-faults N] [-json] trace.jsonl")
		os.Exit(2)
	}

	spans, err := telemetry.ReadSpansFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	sum := telemetry.Summarize(spans, *top)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
		return
	}
	render(os.Stdout, sum, *maxRows)
}

func render(w *os.File, sum telemetry.TraceSummary, maxFaults int) {
	fmt.Fprintf(w, "trace: %d spans", sum.Spans)
	if !sum.VStart.IsZero() {
		fmt.Fprintf(w, ", virtual %s → %s (%s simulated)",
			sum.VStart.Format(time.RFC3339), sum.VEnd.Format(time.RFC3339),
			sum.VEnd.Sub(sum.VStart).Round(time.Millisecond))
	}
	fmt.Fprintf(w, ", %s total wall time\n\n", time.Duration(sum.WallTime).Round(time.Microsecond))

	fmt.Fprintln(w, "per-layer spans")
	fmt.Fprintln(w, "---------------")
	for _, ls := range sum.Layers {
		mean := time.Duration(0)
		if ls.Spans > 0 {
			mean = time.Duration(int64(ls.WallTime) / int64(ls.Spans))
		}
		fmt.Fprintf(w, "%-10s %7d spans  %4d errors  %12s wall  %10s mean  %s\n",
			ls.Layer, ls.Spans, ls.Errors,
			ls.WallTime.Round(time.Microsecond), mean.Round(time.Microsecond),
			sparkline(ls.WallHist))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "slowest spans (wall time)")
	fmt.Fprintln(w, "-------------------------")
	for _, s := range sum.Slowest {
		fmt.Fprintf(w, "%12s  %s/%s%s\n",
			time.Duration(s.Wall).Round(time.Microsecond), s.Layer, s.Name, attrString(s.Attrs))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "fault timeline (%d faults)\n", len(sum.Faults))
	fmt.Fprintln(w, "--------------------------")
	faults := sum.Faults
	if maxFaults > 0 && len(faults) > maxFaults {
		faults = faults[:maxFaults]
	}
	for _, f := range faults {
		fmt.Fprintf(w, "%s  %s/%s: %s\n",
			f.VirtualTime.Format("15:04:05.000"), f.Layer, f.Name, f.Err)
	}
	if n := len(sum.Faults) - len(faults); n > 0 {
		fmt.Fprintf(w, "... and %d more\n", n)
	}
}

// attrString renders span attributes as a stable " {k=v ...}" suffix.
func attrString(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return " {" + strings.Join(parts, " ") + "}"
}

// sparkline renders a histogram's log2 buckets as a unicode bar strip.
func sparkline(h telemetry.HistogramSnapshot) string {
	if len(h.Buckets) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	max := int64(1)
	for _, b := range h.Buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range h.Buckets {
		idx := int(b.Count * int64(len(levels)-1) / max)
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
