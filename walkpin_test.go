package crumbcruncher_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"
	"testing"
	"time"

	"crumbcruncher"
)

// pinnedWalkDigests holds, per configuration, the SHA-256 of every walk's
// JSON record in index order and of the metrics JSON. They change only
// when the crawl's output changes: a refactor of how the browser and the
// crawler derive URL, Referer, hop and snapshot strings must leave them
// alone.
var pinnedWalkDigests = map[string]struct{ walks, metrics string }{
	"clean": {
		walks:   "a09a3fe32cb3694cbb1fcde84f39294be92820825d82946342f3a0ea84b968ed",
		metrics: "9256dfa745521a99a521f990acbafb5beffcbf0aa027168f4652d2832629290d",
	},
	"faults": {
		walks:   "71cc5a2b8268ac5ab2eaa59e780eec720d0a2c42a67e12b72d516ee7af177af7",
		metrics: "057a511ff941778357f17c14dbd22127b20e8356806139e701b849de611c5157",
	},
}

// walkPinConfig is SmallConfig at seed 4, clean or under the fault
// mix `-connect-fail 0.033 -transient-fail 0.2 -degrade 0.1 -retries 3
// -spike 0.05 -deadline 2s`.
func walkPinConfig(faults bool, parallel int) crumbcruncher.Config {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 4
	cfg.Parallelism = parallel
	if faults {
		cfg.World.ConnectFailRate = 0.033
		cfg.World.TransientFailRate = 0.2
		cfg.World.HTTPDegradeRate = 0.1
		cfg.World.LatencySpikeRate = 0.05
		cfg.Retry = crumbcruncher.DefaultRetryPolicy()
		cfg.Retry.MaxAttempts = 3
		cfg.RequestDeadline = 2 * time.Second
	}
	return cfg
}

// walkDigests runs cfg and returns the digest of its walk records, taken
// in index order, and of its metrics JSON.
func walkDigests(t *testing.T, cfg crumbcruncher.Config) (walks, metrics string) {
	t.Helper()
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ws := slices.Clone(run.Dataset.Walks)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Index < ws[j].Index })
	if len(ws) != cfg.Walks {
		t.Fatalf("run holds %d walks, want %d", len(ws), cfg.Walks)
	}
	h := sha256.New()
	for _, w := range ws {
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		h.Write(sum[:])
	}
	walks = hex.EncodeToString(h.Sum(nil))
	mh := sha256.New()
	if err := crumbcruncher.WriteMetricsJSON(mh, run); err != nil {
		t.Fatal(err)
	}
	return walks, hex.EncodeToString(mh.Sum(nil))
}

// TestWalkRecordsPinned pins the bytes of every walk record and of the
// metrics of a small crawl, clean and under faults, at Parallelism 1
// and 4.
func TestWalkRecordsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"clean", false}, {"faults", true}} {
		want := pinnedWalkDigests[tc.name]
		for _, par := range []int{1, 4} {
			walks, metrics := walkDigests(t, walkPinConfig(tc.faults, par))
			if walks != want.walks {
				t.Errorf("%s, parallel %d: walk records digest %s, pinned %s", tc.name, par, walks, want.walks)
			}
			if metrics != want.metrics {
				t.Errorf("%s, parallel %d: metrics digest %s, pinned %s", tc.name, par, metrics, want.metrics)
			}
		}
	}
}
