package category

import "testing"

func TestCategoryOf(t *testing.T) {
	tax := New(map[string]string{"news.com": "News/Weather/Information"})
	if got := tax.CategoryOf("news.com"); got != "News/Weather/Information" {
		t.Fatalf("got %q", got)
	}
	if got := tax.CategoryOf("mystery.com"); got != Unknown {
		t.Fatalf("got %q", got)
	}
}

func TestCountByCategoryDedupes(t *testing.T) {
	tax := New(map[string]string{
		"a.com": "Sports",
		"b.com": "Sports",
		"c.com": "Shopping",
	})
	counts := tax.CountByCategory([]string{"a.com", "a.com", "b.com", "c.com", "d.com"})
	if counts["Sports"] != 2 {
		t.Fatalf("Sports = %d", counts["Sports"])
	}
	if counts["Shopping"] != 1 {
		t.Fatalf("Shopping = %d", counts["Shopping"])
	}
	if counts[Unknown] != 1 {
		t.Fatalf("Unknown = %d", counts[Unknown])
	}
}
