package report

import (
	"context"
	"strings"
	"testing"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	Table(&b, "Title", []string{"A", "LongHeader"}, [][]string{
		{"x", "1"},
		{"yyyyy", "22"},
	})
	out := b.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "LongHeader") {
		t.Fatalf("output missing pieces:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, underline, header, separator, two rows
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestBarChart(t *testing.T) {
	var b strings.Builder
	BarChart(&b, "Chart", []stats.Entry{{Key: "big", Count: 10}, {Key: "small", Count: 1}}, 10)
	out := b.String()
	if !strings.Contains(out, "██████████ 10") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "█ 1") {
		t.Fatalf("small bar wrong:\n%s", out)
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	var b strings.Builder
	BarChart(&b, "", nil, 0) // must not panic or divide by zero
	BarChart(&b, "z", []stats.Entry{{Key: "none", Count: 0}}, 10)
}

func TestRenderFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline render")
	}
	cfg := core.SmallConfig()
	cfg.Walks = 40
	r, err := core.ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	Render(&b, r)
	out := b.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3",
		"Figure 4a", "Figure 5a", "Figure 6", "Figure 7", "Figure 8",
		"UID smuggling on", "Crawl failure rates",
		"Token pipeline", "lifetimes", "Blocklist coverage",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
