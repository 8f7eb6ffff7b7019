package runstore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
	"crumbcruncher/internal/runstore"
)

// crawlRecords crawls a small faulty world into a run store — retries,
// a request deadline, latency spikes and a crawl cancelled part-way —
// and returns the raw walk records the store holds. Two kinds of record
// no crawl logs are added, encoded as encodeWalk encodes any walk: one
// per walk the cancellation left unstarted, marked Skipped as the
// crawler marks it, and a copy of the first walk whose snapshots hold
// localStorage, which the synthetic web never writes.
var crawlRecords = sync.OnceValues(func() ([][]byte, error) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 24
	cfg.Parallelism = 2
	cfg.World.ConnectFailRate = 0.15
	cfg.World.TransientFailRate = 0.25
	cfg.World.HTTPDegradeRate = 0.15
	cfg.World.LatencySpikeRate = 0.2
	cfg.Retry = crumbcruncher.DefaultRetryPolicy()
	cfg.RequestDeadline = 2 * time.Second

	dir, err := os.MkdirTemp("", "walkcodec")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.crumbs")
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = crumbcruncher.NewRunner(cfg, crumbcruncher.WithRunStore(st),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= cfg.Walks-6 {
				cancel()
			}
		})).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("cancelled crawl returned %v", err)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Fewer walks than a segment holds: every record is in the active
	// segment, in completion order.
	lf, records, err := runio.OpenLineFile(filepath.Join(path, "seg-000000.jsonl"), runio.Header{Format: runio.SegmentFormat, Version: 1})
	if err != nil {
		return nil, err
	}
	lf.Close()
	logged := map[int]bool{}
	first := -1
	for _, raw := range records {
		var rec runstore.WalkRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, err
		}
		logged[rec.Index] = true
		if first < 0 {
			first = rec.Index
		}
	}
	var added []*crawler.Walk
	for i := 0; i < cfg.Walks; i++ {
		if !logged[i] {
			added = append(added, &crawler.Walk{Index: i, Seeder: fmt.Sprintf("seeder-%d.example", i), Skipped: true})
		}
	}
	local, err := runstore.DecodeWalk(records[0], first)
	if err != nil {
		return nil, err
	}
	local.Index = cfg.Walks
	for _, cs := range local.SeedLoad {
		cs.After.Local = map[string]string{"_uid": "a1b2", "k<&>\u2028\"": "v\t\u00e9\U0001F600"}
	}
	added = append(added, local)
	for _, w := range added {
		raw, err := runstore.EncodeWalk(w)
		if err != nil {
			return nil, err
		}
		records = append(records, raw)
	}
	return records, nil
})

// referenceDecode is decodeWalk as it reads with encoding/json alone.
func referenceDecode(raw []byte, idx int) (*crawler.Walk, error) {
	var rec runstore.WalkRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("runstore: decode walk record: %w", err)
	}
	if rec.Index != idx {
		return nil, fmt.Errorf("runstore: %w: record for walk %d holds walk %d", runio.ErrCorrupt, idx, rec.Index)
	}
	if rec.Walk == nil {
		return nil, fmt.Errorf("runstore: walk record %d has no walk", rec.Index)
	}
	return rec.Walk, nil
}

// sameDecode checks that decodeWalk gives raw the value, or the error
// message, encoding/json gives it.
func sameDecode(t *testing.T, raw []byte, idx int) {
	t.Helper()
	want, werr := referenceDecode(raw, idx)
	got, gerr := runstore.DecodeWalk(raw, idx)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("decodeWalk error %v, encoding/json error %v", gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("decodeWalk error %q, encoding/json error %q", gerr, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decodeWalk and encoding/json disagree:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeWalkMatchesJSON decodes every record of a faulty,
// cancelled crawl on the fast path, deep-equal to encoding/json's
// result, and checks that the records cover every optional part of a
// walk.
func TestDecodeWalkMatchesJSON(t *testing.T) {
	records, err := crawlRecords()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, raw := range records {
		got, ok := runstore.DecodeWalkRecord(raw)
		if !ok {
			t.Fatalf("fast path refused a stored record: %.200s", raw)
		}
		var want runstore.WalkRecord
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("walk %d: fast path and encoding/json disagree", want.Index)
		}
		sameDecode(t, raw, want.Index)
		cover(seen, want)
	}
	for _, part := range []string{"Err", "Degraded", "Ended", "Skipped", "SeedLoad", "Local", "Expires", "Escape"} {
		if !seen[part] {
			t.Errorf("no stored record holds %s", part)
		}
	}
}

// cover marks which optional parts of a walk record rec holds.
func cover(seen map[string]bool, rec runstore.WalkRecord) {
	w := rec.Walk
	seen["Degraded"] = seen["Degraded"] || w.Degraded != ""
	seen["Ended"] = seen["Ended"] || w.Ended != ""
	seen["Skipped"] = seen["Skipped"] || w.Skipped
	seen["SeedLoad"] = seen["SeedLoad"] || len(w.SeedLoad) > 0
	visit := func(cs *crawler.CrawlerStep) {
		for _, snap := range []crawler.Snapshot{cs.Before, cs.After} {
			seen["Local"] = seen["Local"] || len(snap.Local) > 0
			for _, c := range snap.Cookies {
				seen["Expires"] = seen["Expires"] || !c.Expires.IsZero()
			}
		}
		for _, r := range cs.Requests {
			seen["Err"] = seen["Err"] || r.Err != ""
			seen["Escape"] = seen["Escape"] || strings.Contains(r.URL, "&")
		}
	}
	for _, cs := range w.SeedLoad {
		visit(cs)
	}
	for _, s := range w.Steps {
		for _, cs := range s.Records {
			visit(cs)
		}
	}
}

// TestDecodeWalkFallback feeds decodeWalk one input per fallback
// trigger: the fast path must refuse it, and decodeWalk must return
// what encoding/json returns, the same value or the same error.
func TestDecodeWalkFallback(t *testing.T) {
	const walk = `"walk":{"index":3,"seeder":"a.example","steps":[]}`
	cases := []struct{ name, raw string }{
		{"key-case", `{"Index":3,` + walk + `}`},
		{"unknown-key", `{"index":3,"extra":[1,{}],` + walk + `}`},
		{"repeated-key", `{"index":3,"index":3,` + walk + `}`},
		{"fraction", `{"index":3.0,` + walk + `}`},
		{"exponent", `{"index":3e0,` + walk + `}`},
		{"leading-zero", `{"index":03,` + walk + `}`},
		{"plus", `{"index":+3,` + walk + `}`},
		{"overflow", `{"index":9223372036854775808,` + walk + `}`},
		{"lone-surrogate", `{"index":3,"walk":{"index":3,"seeder":"a\ud800.example"}}`},
		{"invalid-utf8", "{\"index\":3,\"walk\":{\"index\":3,\"seeder\":\"a\xff.example\"}}"},
		{"trailing-bytes", `{"index":3,` + walk + `} x`},
		{"bad-time", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"requests":[{"Time":"yesterday"}]}}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			if _, ok := runstore.DecodeWalkRecord(raw); ok {
				t.Fatalf("fast path accepted %s", raw)
			}
			sameDecode(t, raw, 3)
		})
	}
}

// TestDecodeWalkNonCanonical feeds the fast path JSON that encodeWalk
// never writes but encoding/json decodes without error: it must accept
// each input and agree with encoding/json on the value.
func TestDecodeWalkNonCanonical(t *testing.T) {
	cases := []struct{ name, raw string }{
		{"white-space", " {\t\"index\" : 3 ,\n\"walk\":{ \"index\":3 , \"steps\" : [ null , {} ] }\r} \n"},
		{"nulls", `{"index":3,"clock":null,"walk":{"index":3,"seeder":null,"steps":null,"seed_load":{"a":null},"skipped":null}}`},
		{"empty", `{"index":3,"walk":{"index":3,"steps":[],"seed_load":{},"ended":""}}`},
		{"null-structs", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"before":null,"clicked":null,"nav_chain":[null],"requests":[{"Time":null}]}}}}`},
		{"surrogate-pair", `{"index":3,"walk":{"index":3,"seeder":"\ud83d\ude00\u00e9\/\b\f\n\r\t"}}`},
		{"repeated-map-key", `{"index":3,"walk":{"index":3,"seed_load":{"a":{"crawler":"x"},"a":{"profile":"y"}}}}`},
		{"negative", `{"index":-9223372036854775808,"walk":{"index":-0}}`},
		{"element", `{"index":3,"walk":{"index":3,"steps":[{"records":{"a":{"clicked":{"attr_names":[],"box":{"X":-1,"H":2},"cross_domain":false}}}}]}}`},
		{"null-record", `null`},
		// Records written before walks had their own clocks carry one;
		// nothing decodes it, so any string is skipped.
		{"clock", `{"index":3,"clock":"2022-03-01T00:10:00Z","walk":{"index":3,"seeder":"a.example"}}`},
		{"clock-unparsed", `{"walk":{"index":3},"clock":"yesterday","index":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			got, ok := runstore.DecodeWalkRecord(raw)
			if !ok {
				t.Fatalf("fast path refused %s", raw)
			}
			var want runstore.WalkRecord
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path and encoding/json disagree:\n got %+v\nwant %+v", got, want)
			}
			sameDecode(t, raw, want.Index)
		})
	}
}

// FuzzDecodeWalk checks that whenever the fast path decodes an input,
// encoding/json decodes it too, to a deep-equal value, and that
// decodeWalk matches encoding/json on every input. The corpus starts
// from the crawl's records and each record damaged the ways
// TestSegmentDamageMatrix damages a segment: truncated, a bit flipped,
// and replaced by a foreign payload.
func FuzzDecodeWalk(f *testing.F) {
	records, err := crawlRecords()
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range records {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		flipped := bytes.Clone(raw)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(`{"not":"valid"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := runstore.DecodeWalkRecord(raw)
		var want runstore.WalkRecord
		err := json.Unmarshal(raw, &want)
		if ok && err != nil {
			t.Fatalf("fast path accepted what encoding/json rejects (%v)", err)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path and encoding/json disagree:\n got %+v\nwant %+v", got, want)
		}
		sameDecode(t, raw, want.Index)
	})
}
