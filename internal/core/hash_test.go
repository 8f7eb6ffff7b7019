package core

import (
	"context"
	"testing"

	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// TestConfigHashIgnoresSchedulingKnobs pins the hash's contract:
// two configurations differing only in Parallelism or in attached
// runtime wiring (Telemetry, Store, OnProgress) produce
// byte-identical runs, so they must hash identically. The hash is a
// run's provenance and the resume check: a walk log recorded at one
// Parallelism must resume at another, and a saved run must report the
// same identity however it was scheduled.
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
// the same canonical hash as Config.Hash (via telemetry.Hasher), so a
// saved run, the resume check and the server agree on a
// configuration's identity.
func TestProvenanceUsesConfigHash(t *testing.T) {
	cfg := SmallConfig()
	if got, want := telemetry.ConfigHash(cfg), cfg.Hash(); got != want {
		t.Errorf("telemetry.ConfigHash(cfg) = %s, want cfg.Hash() = %s", got, want)
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
