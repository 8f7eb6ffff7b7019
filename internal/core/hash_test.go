package core

import (
	"context"
	"encoding/json"
	"testing"

	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// TestConfigHashIgnoresSchedulingKnobs pins the world-cache contract:
// two configurations differing only in Parallelism or in attached
// runtime wiring (Telemetry, Store, OnProgress) produce
// byte-identical runs, so they must hash identically — a scheduling
// knob must never fragment the serve layer's world cache.
func TestConfigHashIgnoresSchedulingKnobs(t *testing.T) {
	base := SmallConfig()
	want := base.Hash()
	if want == "" || want == "unserializable" {
		t.Fatalf("base.Hash() = %q", want)
	}

	par := base
	par.Parallelism = 16
	if got := par.Hash(); got != want {
		t.Errorf("Parallelism fragments the hash: %s != %s", got, want)
	}

	tel := base
	tel.Telemetry = telemetry.New(nil, 16)
	tel.OnProgress = func(Progress) {}
	if got := tel.Hash(); got != want {
		t.Errorf("runtime wiring fragments the hash: %s != %s", got, want)
	}

	seed := base
	seed.World.Seed = base.World.Seed + 1
	if got := seed.Hash(); got == want {
		t.Errorf("seed change did not change the hash: %s", got)
	}
	walks := base
	walks.Walks = base.Walks + 1
	if got := walks.Hash(); got == want {
		t.Errorf("walk-count change did not change the hash: %s", got)
	}
}

// TestConfigHashPinned pins the stock configurations' hashes. The hash
// keys the serve layer's world cache and every saved run's provenance,
// so removing a Config field, or changing how one serializes, must
// leave these values alone unless the change means to re-key them.
func TestConfigHashPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"SmallConfig", SmallConfig(), "bc8f41fe4e0dead13467abb81b3e79beac8d3c77b26f83eea3704911ed366381"},
		{"DefaultConfig", DefaultConfig(), "ebbf58b971f60b42c9f8ac6c10d0ad3968fdb094ad02114c79877feeff5a28ab"},
	} {
		if got := tc.cfg.Hash(); got != tc.want {
			t.Errorf("%s.Hash() = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestProvenanceUsesConfigHash pins that run provenance routes through
// the same canonical hash as the world cache (via telemetry.Hasher), so
// a saved run and the server agree on a configuration's identity.
func TestProvenanceUsesConfigHash(t *testing.T) {
	cfg := SmallConfig()
	if got, want := telemetry.ConfigHash(cfg), cfg.Hash(); got != want {
		t.Errorf("telemetry.ConfigHash(cfg) = %s, want cfg.Hash() = %s", got, want)
	}
}

// TestExecuteInWorldForkMatchesFresh proves a forked world is a perfect
// stand-in for a freshly built one: the full pipeline over a fork of a
// never-crawled template produces the same results as ExecuteContext
// building its own world — and the template stays reusable afterwards.
// Parallelism 1 makes the comparison maximally strict: at 1 the whole
// dataset (virtual timestamps included) is byte-reproducible, so any
// state leaking through a fork would surface here. The serve tests
// cover the parallel/multi-tenant case at the metrics level.
func TestExecuteInWorldForkMatchesFresh(t *testing.T) {
	cfg := SmallConfig()
	cfg.Walks = 10
	cfg.Parallelism = 1
	ref, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	template := web.BuildWorld(cfg.World)
	for i := 0; i < 2; i++ {
		run, err := ExecuteInWorld(context.Background(), cfg, template.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonBytes(t, run.Stats), jsonBytes(t, ref.Stats); string(got) != string(want) {
			t.Fatalf("fork %d: stats diverge from fresh build:\n%s\n%s", i, got, want)
		}
		if got, want := jsonBytes(t, run.Dataset), jsonBytes(t, ref.Dataset); string(got) != string(want) {
			t.Fatalf("fork %d: dataset diverges from fresh build", i)
		}
	}
}

// TestExecuteInWorldRejectsMismatchedWorld pins the guard: handing the
// pipeline a world built from a different configuration is an error,
// not a silently wrong run.
func TestExecuteInWorldRejectsMismatchedWorld(t *testing.T) {
	cfg := SmallConfig()
	other := cfg.World
	other.Seed++
	if _, err := ExecuteInWorld(context.Background(), cfg, web.BuildWorld(other)); err == nil {
		t.Fatal("ExecuteInWorld accepted a world built from a different configuration")
	}
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
