package crumbcruncher_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crumbcruncher"
	"crumbcruncher/internal/chaos"
	"crumbcruncher/internal/runstore"
)

// chaosConfig is the small deterministic run every chaos scenario
// crashes and resumes. Parallelism 1 keeps the resumed schedule
// byte-identical to the uninterrupted one.
func chaosConfig() crumbcruncher.Config {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 11
	cfg.Walks = 20
	cfg.Parallelism = 1
	return cfg
}

// runToCrash executes a streaming run that records to a fresh run
// store at path, with inj installed at the write boundary, canceling the
// run the instant the injector's crash point fires — the in-process
// equivalent of the process dying mid-run. Returns once the run has
// unwound.
func runToCrash(t *testing.T, cfg crumbcruncher.Config, path string, inj *chaos.Injector) {
	t.Helper()
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runstore.SetFault(inj)
	defer runstore.SetFault(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-inj.Crashed():
			cancel()
		case <-done:
		}
	}()

	if _, err := crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(st)).Run(ctx); err == nil {
		t.Fatal("crashed run returned no error")
	}
	select {
	case <-inj.Crashed():
	default:
		t.Fatal("run failed before the chaos point fired")
	}
	st.Close() //nolint:errcheck // the "process" is dead; state is on disk
}

// resumeAndVerify reopens the store at path (recovering whatever the
// crash left), finishes the run, and asserts the metrics are
// byte-identical to the uninterrupted reference and the store
// finalized. With wantRecords non-nil it also requires every stored
// walk record to be byte-identical, by index, to the reference's.
func resumeAndVerify(t *testing.T, cfg crumbcruncher.Config, path string, want []byte, wantRecords map[int]string) {
	t.Helper()
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run, err := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithRunStore(st),
		crumbcruncher.WithTelemetry(crumbcruncher.NewTelemetry()),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsBytes(t, run); !bytes.Equal(got, want) {
		t.Error("resumed run's metrics differ from the uninterrupted run")
	}
	if !st.Finalized() {
		t.Error("a successful run left its store unfinalized")
	}
	if wantRecords == nil {
		return
	}
	got := storedRecords(t, path)
	if len(got) != len(wantRecords) {
		t.Errorf("resumed store holds %d walk records, the uninterrupted run's %d", len(got), len(wantRecords))
	}
	for idx, rec := range wantRecords {
		if got[idx] != rec {
			t.Errorf("walk %d's stored record differs from the uninterrupted run's", idx)
		}
	}
}

// storedRecords reads the framed walk records of a finalized store's
// sealed segments straight from disk, keyed by walk index.
func storedRecords(t *testing.T, path string) map[int]string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.sgz"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments in %s (%v)", path, err)
	}
	recs := map[int]string{}
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		for _, line := range lines[1:] { // line 0 is the segment header
			const framePrefix = 19 // '!' crc32 '!' length '!'
			var rec struct {
				Index int `json:"index"`
			}
			if len(line) < framePrefix || json.Unmarshal([]byte(line[framePrefix:]), &rec) != nil {
				t.Fatalf("%s: unreadable walk record %.40q", seg, line)
			}
			if _, dup := recs[rec.Index]; dup {
				t.Fatalf("%s: walk %d stored twice", seg, rec.Index)
			}
			recs[rec.Index] = line
		}
	}
	return recs
}

// TestChaosCrashRecoverVerify kills a streaming run at seeded chaos
// points in its run store's active segment — five named scenarios
// (torn walk records of varying severity, a crash at the seal's
// fsync), then a crash at every append the run makes to its segment,
// each with its own tear width — resumes from the surviving disk state,
// and requires metrics byte-identical to a clean run and every stored
// walk record byte-identical to the clean run's.
func TestChaosCrashRecoverVerify(t *testing.T) {
	cfg := chaosConfig()
	refPath := filepath.Join(t.TempDir(), "ref.crumbs")
	refStore, err := crumbcruncher.OpenWalkLog(refPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(refStore)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, ref)
	wantRecords := storedRecords(t, refPath)
	if len(wantRecords) != cfg.Walks {
		t.Fatalf("uninterrupted store holds %d walk records, want %d", len(wantRecords), cfg.Walks)
	}

	// The store exists before the injector is installed, and its active
	// segment opens at the first walk: the segment's header is append 1,
	// so append N is walk N-2's record. Appends never fsync; the
	// segment's first fsync is its seal at Finalize.
	type point struct {
		name string
		// store names the run store's path.
		store string
		cfg   chaos.Config
	}
	points := []point{
		{name: "torn walk record, nothing lands", store: "run.jsonl", cfg: chaos.Config{Seed: 1, Target: runstore.SegmentFormat, CrashAtRecord: 5, TearBytes: 0}},
		{name: "torn walk record, partial frame", store: "run.jsonl", cfg: chaos.Config{Seed: 2, Target: runstore.SegmentFormat, CrashAtRecord: 7, TearBytes: 11}},
		{name: "torn walk record, partial payload", store: "run.jsonl", cfg: chaos.Config{Seed: 3, Target: runstore.SegmentFormat, CrashAtRecord: 4, TearBytes: 40}},
		{name: "torn segment record", store: "run.crumbs", cfg: chaos.Config{Seed: 4, Target: runstore.SegmentFormat, CrashAtRecord: 5, TearBytes: 25}},
		{name: "crash at store fsync", store: "run.jsonl", cfg: chaos.Config{Seed: 5, Target: runstore.SegmentFormat, CrashAtSync: 1}},
	}
	// One row per segment append: the header, then every walk record.
	// A row's tear width is a hash of its append number; widths past
	// the frame's length land the whole frame before the crash.
	appends := cfg.Walks + 1
	for n := 1; n <= appends; n++ {
		h := fnv.New32a()
		fmt.Fprintf(h, "tear/%d", n)
		tear := int(h.Sum32() % 120)
		points = append(points, point{
			name:  fmt.Sprintf("crash at append %02d of %d, tear %d", n, appends, tear),
			store: "run.crumbs",
			cfg:   chaos.Config{Seed: int64(100 + n), Target: runstore.SegmentFormat, CrashAtRecord: n, TearBytes: tear},
		})
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), p.store)
			runToCrash(t, cfg, path, chaos.New(p.cfg))
			resumeAndVerify(t, cfg, path, want, wantRecords)
		})
	}
}

// TestChaosCorruptStoreQuarantined flips a bit in a recorded walk of an
// interrupted run's active segment (latent damage: the run never
// notices), then verifies that reopening refuses the corrupt walks —
// quarantine, typed error — and that the retry still converges to
// clean metrics.
func TestChaosCorruptStoreQuarantined(t *testing.T) {
	cfg := chaosConfig()
	ref, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, ref)

	path := filepath.Join(t.TempDir(), "run.crumbs")
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Append 1 is the active segment's header, so append 4 is the third
	// walk's record. The flip is latent: the run goes on normally, with
	// the damage sitting in the store, until it is interrupted with the
	// damaged record mid-segment.
	runstore.SetFault(chaos.New(chaos.Config{Seed: 9, Target: runstore.SegmentFormat, FlipAtRecord: 4}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(st),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= 10 {
				once.Do(cancel)
			}
		})).Run(ctx)
	runstore.SetFault(nil)
	st.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	// Reopen: never silently skip the corrupt record. The damaged
	// segment is quarantined and the open reports exactly where the
	// damage is.
	_, err = crumbcruncher.OpenWalkLog(path, cfg)
	var dmg *runstore.DamageError
	if !errors.As(err, &dmg) || !errors.Is(err, runstore.ErrCorrupt) {
		t.Fatalf("corrupt store not classified: %v", err)
	}
	if dmg.Quarantined == "" {
		t.Fatal("corrupt segment not quarantined")
	}
	if dmg.Record != 3 {
		t.Errorf("damage pinned to record %d, want 3 (the third walk)", dmg.Record)
	}

	// The retry finds no intact walks left and reproduces the clean run.
	resumeAndVerify(t, cfg, path, want, nil)
}

// TestSealedSegmentDamageStartsFresh is the sealed-segment quarantine
// sequence: a segment-store run interrupted after two segments sealed,
// then a byte flipped in the first sealed segment. Reopening the walk
// log verifies the sealed segments before any crawl trusts them, so it
// fails with ErrCorrupt and moves the store aside; the retry then
// starts fresh and converges to clean metrics, and the store it
// finalized is refused as finalized — not as a missing segment — on a
// later run.
func TestSealedSegmentDamageStartsFresh(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 540
	cfg.StepsPerWalk = 1
	cfg.Parallelism = 1
	ref, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, ref)

	path := filepath.Join(t.TempDir(), "q.crumbs")
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(st),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= 520 { // two sealed segments of 256
				once.Do(cancel)
			}
		})).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	st.Close()
	seg := filepath.Join(path, "seg-000000.sgz")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("no sealed segment after the interrupted run: %v", err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = crumbcruncher.OpenWalkLog(path, cfg)
	var dmg *runstore.DamageError
	if !errors.As(err, &dmg) || !errors.Is(err, runstore.ErrCorrupt) {
		t.Fatalf("reopening a store with a damaged sealed segment = %v, want ErrCorrupt", err)
	}
	if dmg.Quarantined != path+".corrupt" {
		t.Fatalf("store quarantined to %q, want %q", dmg.Quarantined, path+".corrupt")
	}
	if msg := err.Error(); strings.Contains(msg, "record -1") || strings.Contains(msg, "offset -1") {
		t.Errorf("damage message names unknown positions: %s", msg)
	}

	// The retry finds the path free and starts fresh.
	st, err = crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatalf("fresh start after quarantine: %v", err)
	}
	if n := st.Walks(); n != 0 {
		t.Fatalf("fresh store holds %d walks", n)
	}
	st.Close()
	resumeAndVerify(t, cfg, path, want, nil)

	_, err = crumbcruncher.OpenWalkLog(path, cfg)
	if err == nil || !strings.Contains(err.Error(), "finalized") {
		t.Fatalf("later run over the finalized store = %v, want the finalized refusal", err)
	}
}
