package intern

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// data returns the address of a string's backing bytes — the identity
// interning is about.
func data(s string) *byte { return unsafe.StringData(s) }

// held counts the canonical strings an interner holds.
func held(in *Interner) int {
	n := 0
	for i := range in.shards {
		n += len(in.shards[i].m)
	}
	return n
}

func TestInternCanonicalIdentity(t *testing.T) {
	in := New(42)
	a := in.Intern("tracker.example.com")
	b := in.Intern("tracker." + "example.com")
	if a != b {
		t.Fatalf("interned values differ: %q vs %q", a, b)
	}
	if data(a) != data(b) {
		t.Fatal("equal strings must share one canonical backing array")
	}
	if held(in) != 1 {
		t.Fatalf("held = %d, want 1", held(in))
	}
}

func TestInternCopiesSubstrings(t *testing.T) {
	in := New(0)
	big := "http://ad.example.net/click?uid=deadbeef&ts=12345"
	sub := big[7:21] // "ad.example.net"
	c := in.Intern(sub)
	if c != sub {
		t.Fatalf("canonical %q != input %q", c, sub)
	}
	if data(c) == data(sub) {
		t.Fatal("canonical string must be a copy, not a slice pinning the source buffer")
	}
}

func TestInternNilAndEmpty(t *testing.T) {
	var in *Interner
	if got := in.Intern("x"); got != "x" {
		t.Fatalf("nil interner must pass through, got %q", got)
	}
	live := New(0)
	if got := live.Intern(""); got != "" {
		t.Fatalf("empty string must pass through, got %q", got)
	}
	if held(live) != 0 {
		t.Fatal("empty string must not be stored")
	}
}

// TestInternConcurrent hammers one interner from many goroutines over
// an overlapping key set. Run under -race (make race does) it proves
// the shard locking; the assertions prove every goroutine observed the
// same canonical instance per key.
func TestInternConcurrent(t *testing.T) {
	in := New(7)
	const goroutines = 16
	const keys = 100
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]string, keys)
			for i := 0; i < keys; i++ {
				// Every goroutine interns the full key set, rotated so
				// insertions race from different starting points.
				k := (i + g*7) % keys
				got[g][k] = in.Intern(fmt.Sprintf("host-%d.example.com", k))
			}
		}(g)
	}
	wg.Wait()
	if held(in) != keys {
		t.Fatalf("held = %d, want %d", held(in), keys)
	}
	for k := 0; k < keys; k++ {
		want := got[0][k]
		for g := 1; g < goroutines; g++ {
			if got[g][k] != want {
				t.Fatalf("goroutine %d got %q for key %d, want %q", g, got[g][k], k, want)
			}
			if data(got[g][k]) != data(want) {
				t.Fatalf("goroutine %d got a non-canonical instance for key %d", g, k)
			}
		}
	}
}

// TestInternNoCrossRunnerLeakage proves interners are fully isolated:
// two runners interning the same strings get equal values but disjoint
// canonical instances, and neither runner's table sees the other's
// entries. This is the contract that lets concurrent Runners (and
// concurrent tests) each own an interner without any global state.
func TestInternNoCrossRunnerLeakage(t *testing.T) {
	run1 := New(1)
	run2 := New(2)
	keys := []string{"news.com", "track.t.net", "shop.com", "zclid", "uid"}
	for _, k := range keys {
		c1 := run1.Intern(k)
		c2 := run2.Intern(k)
		if c1 != c2 {
			t.Fatalf("values must be equal across runners: %q vs %q", c1, c2)
		}
		if data(c1) == data(c2) {
			t.Fatalf("runners share a canonical instance for %q — cross-runner leakage", k)
		}
	}
	if held(run1) != len(keys) || held(run2) != len(keys) {
		t.Fatalf("held = %d/%d, want %d each", held(run1), held(run2), len(keys))
	}
	// A fresh runner starts empty no matter how much earlier runners
	// interned.
	if fresh := New(3); held(fresh) != 0 {
		t.Fatalf("fresh interner holds %d, want 0", held(fresh))
	}
}
