package entity

import "testing"

func TestListLookup(t *testing.T) {
	l := NewList(map[string]string{"facebook.com": "Facebook", "instagram.com": "Facebook"})
	if o, ok := l.OrgOf("facebook.com"); !ok || o != "Facebook" {
		t.Fatalf("got %q ok=%v", o, ok)
	}
	if _, ok := l.OrgOf("unknown.com"); ok {
		t.Fatal("unknown domain resolved")
	}
	if o, ok := l.OrgOf("instagram.com"); !ok || o != "Facebook" {
		t.Fatalf("second entry: got %q ok=%v", o, ok)
	}
}

func TestAttributorPrecedence(t *testing.T) {
	list := NewList(map[string]string{"a.com": "ListOrg"})
	manual := NewList(map[string]string{"a.com": "ManualOrg", "b.com": "ManualOrg"})
	at := NewAttributor(list, manual)
	if got := at.OrgOf("a.com"); got != "ListOrg" {
		t.Fatalf("entity list should win: %q", got)
	}
	if got := at.OrgOf("b.com"); got != "ManualOrg" {
		t.Fatalf("manual fallback: %q", got)
	}
	if got := at.OrgOf("c.com"); got != Unattributed {
		t.Fatalf("unattributed: %q", got)
	}
}

func TestAttributorNilSources(t *testing.T) {
	at := NewAttributor(nil, nil)
	if got := at.OrgOf("x.com"); got != Unattributed {
		t.Fatalf("got %q", got)
	}
}
