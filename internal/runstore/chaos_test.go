package runstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crumbcruncher/internal/chaos"
)

// These tests run the deterministic chaos injector (DESIGN.md §12)
// against the segment backend's write path: the active segment is a
// plain LineFile, so torn writes, seal-time crashes and bit rot
// all land exactly where they would in production, and every recovery
// is replayable from the injector's seed.

// TestSegmentChaosTornAppend crashes mid-append to the active segment
// and verifies reopening recovers every acknowledged walk, drops the
// torn one, and the store finishes the run normally.
func TestSegmentChaosTornAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(dir, testManifest(5))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 100 // no sealing in this scenario

	// Active-segment appends count 1=header, 2=walk 0, ...; crash on
	// walk 2's record with a 9-byte torn prefix landing.
	inj := chaos.New(chaos.Config{Seed: 5, Target: SegmentFormat, CrashAtRecord: 4, TearBytes: 9})
	SetFault(inj)
	var acked []int
	var crashErr error
	for i := 0; i < 5; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			crashErr = err
			break
		}
		acked = append(acked, i)
	}
	SetFault(nil)
	if !errors.Is(crashErr, chaos.ErrCrash) {
		t.Fatalf("append error = %v, want the chaos crash", crashErr)
	}
	if !reflect.DeepEqual(acked, []int{0, 1}) {
		t.Fatalf("acked walks = %v, want [0 1]", acked)
	}
	// The "process" died: reopen without closing, like a real crash.
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	if st2.Walks() != len(acked) {
		t.Fatalf("recovered %d walks, want %d", st2.Walks(), len(acked))
	}
	for i := 2; i < 5; i++ {
		if err := st2.Append(testWalk(i)); err != nil {
			t.Fatalf("append walk %d after recovery: %v", i, err)
		}
	}
	if err := st2.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := drain(t, st2)
	if len(got) != 5 {
		t.Fatalf("drained %d walks, want 5", len(got))
	}
	for i, w := range got {
		if !reflect.DeepEqual(w, testWalk(i)) {
			t.Fatalf("walk %d corrupted across crash recovery", i)
		}
	}
	st2.Close()
}

// TestSegmentChaosSealCrash crashes on the sidecar index append — after
// the sealed sgz landed, before the jsonl was removed. Reopening must
// re-adopt the jsonl (the index never acknowledged the seal) and the
// run completes with every walk intact.
func TestSegmentChaosSealCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(dir, testManifest(6))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 2

	// The index header landed at Create, before the injector installs,
	// so the first matching append it sees is the first seal's entry.
	inj := chaos.New(chaos.Config{Seed: 6, Target: segIdxFormat, CrashAtRecord: 1})
	SetFault(inj)
	if err := st.Append(testWalk(0)); err != nil {
		t.Fatal(err)
	}
	err = st.Append(testWalk(1)) // triggers the seal, which crashes
	SetFault(nil)
	if !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("sealing append error = %v, want the chaos crash", err)
	}
	// The crash window left both artifacts: the sealed sgz and the
	// unsealed jsonl the index never recorded.
	if _, err := os.Stat(segSealedPath(dir, 0)); err != nil {
		t.Fatalf("sealed segment missing after crash: %v", err)
	}
	if _, err := os.Stat(segJSONLPath(dir, 0)); err != nil {
		t.Fatalf("unsealed jsonl missing after crash: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after seal crash: %v", err)
	}
	if st2.Walks() != 2 {
		t.Fatalf("recovered %d walks, want 2", st2.Walks())
	}
	for i := 2; i < 4; i++ {
		if err := st2.Append(testWalk(i)); err != nil {
			t.Fatalf("append walk %d after recovery: %v", i, err)
		}
	}
	if err := st2.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := drain(t, st2)
	if len(got) != 4 {
		t.Fatalf("drained %d walks, want 4", len(got))
	}
	for i, w := range got {
		if !reflect.DeepEqual(w, testWalk(i)) {
			t.Fatalf("walk %d corrupted across seal-crash recovery", i)
		}
	}
	st2.Close()
}

// TestSegmentChaosBitFlip writes latent bit rot into a mid-file record
// of the active segment. The damage surfaces on reopen: the first Open
// fails with ErrCorrupt and quarantines the segment, the second opens
// clean with the damaged segment's walks dropped — never silently read.
func TestSegmentChaosBitFlip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := Create(dir, testManifest(7))
	if err != nil {
		t.Fatal(err)
	}
	st.(*segmentStore).segWalks = 100

	// Flip a bit in walk 1's record (append 3: 1=header, 2=walk 0). The
	// write itself succeeds; the damage waits for a reader.
	inj := chaos.New(chaos.Config{Seed: 7, Target: SegmentFormat, FlipAtRecord: 3})
	SetFault(inj)
	for i := 0; i < 5; i++ {
		if err := st.Append(testWalk(i)); err != nil {
			t.Fatalf("append walk %d: %v", i, err)
		}
	}
	SetFault(nil)
	st.Close()

	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over bit rot = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(segJSONLPath(dir, 0) + ".corrupt"); err != nil {
		t.Fatalf("damaged segment not quarantined: %v", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after quarantine: %v", err)
	}
	if st2.Walks() != 0 {
		t.Fatalf("store reads %d walks from a quarantined segment, want 0", st2.Walks())
	}
	st2.Close()
}
