package chaos_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crumbcruncher/internal/chaos"
	"crumbcruncher/internal/runstore"
)

func openFaulted(t *testing.T, path string, hdr runstore.Header, cfg chaos.Config, appends int) (*chaos.Injector, error) {
	t.Helper()
	inj := chaos.New(cfg)
	runstore.SetFault(inj)
	defer runstore.SetFault(nil)

	lf, _, err := runstore.OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < appends; i++ {
		if err := lf.Append(map[string]int{"n": i}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := lf.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return inj, firstErr
}

func TestCrashAtRecordTearsAndAbandons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	hdr := runstore.Header{Format: runstore.WalksFormat, Version: 1, Seed: 3}
	// Record numbering counts the header as append 1 through this
	// handle; crash on the 4th append = entry 3, with 5 torn bytes.
	inj, err := openFaulted(t, path, hdr, chaos.Config{Seed: 1, CrashAtRecord: 4, TearBytes: 5}, 5)
	if !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("crash not surfaced: %v", err)
	}
	select {
	case <-inj.Crashed():
	default:
		t.Fatal("Crashed() channel not closed")
	}

	// Recovery: the torn record is dropped, the two whole entries kept.
	lf, entries, err := runstore.OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if len(entries) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(entries))
	}
	if rec := lf.Recovery(); !rec.DroppedTail || rec.TornBytes != 5 {
		t.Fatalf("recovery = %+v, want dropped tail of 5 bytes", rec)
	}
}

func TestFlipAtRecordQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	hdr := runstore.Header{Format: runstore.WalksFormat, Version: 1, Seed: 3}
	if _, err := openFaulted(t, path, hdr, chaos.Config{Seed: 7, FlipAtRecord: 3}, 4); err != nil {
		t.Fatalf("bit flip must be latent, got %v", err)
	}

	_, _, err := runstore.OpenLineFile(path, hdr)
	var dmg *runstore.DamageError
	if !errors.As(err, &dmg) || !errors.Is(err, runstore.ErrCorrupt) {
		t.Fatalf("flip not classified corrupt: %v", err)
	}
	if dmg.Record != 2 {
		t.Fatalf("damage at record %d, want 2", dmg.Record)
	}
	if dmg.Quarantined == "" {
		t.Fatal("corrupt file not quarantined")
	}
	if _, err := os.Stat(dmg.Quarantined); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged file still present: %v", err)
	}
}

func TestFlipIsDeterministic(t *testing.T) {
	read := func(dir string) []byte {
		path := filepath.Join(dir, "cp.jsonl")
		hdr := runstore.Header{Format: runstore.WalksFormat, Version: 1, Seed: 3}
		if _, err := openFaulted(t, path, hdr, chaos.Config{Seed: 7, FlipAtRecord: 3}, 4); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := read(t.TempDir())
	b := read(t.TempDir())
	if string(a) != string(b) {
		t.Fatal("same seed flipped different bytes")
	}
}

func TestCrashAtSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	hdr := runstore.Header{Format: runstore.WalksFormat, Version: 1, Seed: 3}
	// Appends never fsync, so the first fsync is the explicit Sync.
	inj := chaos.New(chaos.Config{Seed: 1, CrashAtSync: 1})
	runstore.SetFault(inj)
	defer runstore.SetFault(nil)

	lf, _, err := runstore.OpenLineFile(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Append(map[string]int{"n": 1}); err != nil {
		t.Fatalf("append before the sync point: %v", err)
	}
	if err := lf.Sync(); !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("sync crash not surfaced: %v", err)
	}
	// Post-crash the writer is dead: further appends fail the same way.
	if err := lf.Append(map[string]int{"n": 2}); !errors.Is(err, chaos.ErrCrash) {
		t.Fatalf("abandoned writer accepted append: %v", err)
	}
	lf.Close()
}

func TestTargetRestrictsFaults(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(chaos.Config{Seed: 1, Target: runstore.SegmentFormat, CrashAtRecord: 1})
	runstore.SetFault(inj)
	defer runstore.SetFault(nil)

	// A walks-format file is untouched even with the fault armed.
	hdr := runstore.Header{Format: runstore.WalksFormat, Version: 1, Seed: 3}
	lf, _, err := runstore.OpenLineFile(filepath.Join(dir, "cp.jsonl"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Append(map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
}
