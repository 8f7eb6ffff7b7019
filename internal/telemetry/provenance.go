package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"runtime/debug"
)

// Provenance makes an archived run self-describing: the inputs that
// deterministically reproduce it (seed, configuration hash), the code
// that produced it (git revision, Go version), and a telemetry summary
// of what actually happened — so a saved crawl can be audited without
// re-running it, in the spirit of reproducible web-measurement bundles.
type Provenance struct {
	// Seed is the world seed the run was generated from.
	Seed int64 `json:"seed"`
	// ConfigHash is the SHA-256 of the run configuration's canonical
	// JSON; two runs with equal seeds and hashes are byte-identical.
	ConfigHash string `json:"config_hash"`
	// GitRevision is the VCS revision of the producing binary, when the
	// build carried stamping information ("unknown" otherwise).
	GitRevision string `json:"git_revision"`
	// GoVersion is the toolchain that built the producing binary.
	GoVersion string `json:"go_version"`
	// SpansRecorded/SpansDropped account for the tracer ring.
	SpansRecorded int64 `json:"spans_recorded,omitempty"`
	SpansDropped  int64 `json:"spans_dropped,omitempty"`
	// Metrics is the registry snapshot at save time.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// Hasher lets a configuration type supply its own canonical hash.
// core.Config implements it to normalize scheduling-only knobs
// (Parallelism, runtime wiring) out of the digest, so provenance blocks
// and the walk log's resume check agree on one identity for every
// configuration that provably produces byte-identical results.
type Hasher interface {
	Hash() string
}

// ConfigHash hashes any JSON-serializable configuration value. A value
// implementing Hasher supplies its own canonical digest instead. Errors
// collapse to a sentinel rather than failing a save: provenance is
// descriptive metadata, never load-bearing.
func ConfigHash(cfg any) string {
	if h, ok := cfg.(Hasher); ok {
		return h.Hash()
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "unserializable"
	}
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// GitRevision reports the vcs.revision baked into the running binary by
// the Go toolchain, suffixed with "+dirty" for modified trees, or
// "unknown" when the build carried no VCS stamp (e.g. go test).
func GitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// NewProvenance assembles a provenance block for a run. The telemetry
// handle may be nil: the block then carries only the reproducibility
// fields (seed, config hash, build identity).
func NewProvenance(seed int64, cfg any, t *Telemetry) Provenance {
	p := Provenance{
		Seed:        seed,
		ConfigHash:  ConfigHash(cfg),
		GitRevision: GitRevision(),
		GoVersion:   runtime.Version(),
	}
	if t != nil {
		p.SpansRecorded = t.Tracer().Total()
		p.SpansDropped = t.Tracer().Dropped()
		snap := t.Registry().Snapshot()
		p.Metrics = &snap
	}
	return p
}
