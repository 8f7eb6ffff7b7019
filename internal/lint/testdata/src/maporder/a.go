package maporder

import (
	"fmt"
	"sort"
	"strings"

	"crumbcruncher/internal/telemetry"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over a map`
	}
	return keys
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted after the loop: the canonical idiom
	}
	sort.Strings(keys)
	return keys
}

func perIterationSlice(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var acc []int
		acc = append(acc, vs...) // per-iteration slice: order never observed
		total += len(acc)
	}
	return total
}

func keyedTarget(m map[string]int, out map[string][]int) {
	for k, v := range m {
		out[k] = append(out[k], v) // keyed writes commute; no finding
	}
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over a map`
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `WriteString inside range over a map`
	}
	return b.String()
}

func innerBuilder(m map[string]int) int {
	n := 0
	for k := range m {
		var b strings.Builder
		b.WriteString(k) // builder lives inside the iteration; no finding
		n += b.Len()
	}
	return n
}

func badGauge(tel *telemetry.Telemetry, m map[string]int64) {
	g := tel.Registry().Gauge("depth")
	for _, v := range m {
		g.Set(v) // want `Gauge\.Set inside range over a map is order-sensitive telemetry`
	}
}

func commutativeTelemetry(tel *telemetry.Telemetry, m map[string]int64) {
	c := tel.Registry().Counter("total")
	h := tel.Registry().Histogram("sizes")
	for _, v := range m {
		c.Add(v)     // commutative: final count is order-independent
		h.Observe(v) // commutative: histogram buckets are order-independent
	}
}

func allowedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //crumb:allow maporder fixture: consumer treats keys as a set
	}
	return keys
}

func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x) // ranging a slice is deterministic; no finding
	}
	return out
}

// The DESIGN.md §9 mutation rows no test catches, as fixture cases.

type pathAgg struct{ smuggling bool }

// analysis.smugglingAggs with its sort.Strings(keys) dropped.
func unsortedAggs(paths map[string]*pathAgg) []*pathAgg {
	keys := make([]string, 0, len(paths))
	for k, agg := range paths {
		if agg.smuggling {
			keys = append(keys, k) // want `append to keys inside range over a map`
		}
	}
	out := make([]*pathAgg, len(keys))
	for i, k := range keys {
		out[i] = paths[k]
	}
	return out
}

// crumbtrace's attrString printing span attributes straight from the
// map.
func attrString(attrs map[string]string) string {
	var sb strings.Builder
	for k, v := range attrs {
		fmt.Fprintf(&sb, " %s=%s", k, v) // want `fmt\.Fprintf inside range over a map`
	}
	return " {" + sb.String() + "}"
}

// uid's verdict reduce reporting a per-reason gauge from a deferred
// closure.
func lastFilterGauge(tel *telemetry.Telemetry, programmatic map[string]int) {
	reg := tel.Registry()
	defer func() {
		for _, n := range programmatic {
			reg.Gauge("uid.programmatic_last").Set(int64(n)) // want `Gauge\.Set inside range over a map is order-sensitive telemetry`
		}
	}()
}
