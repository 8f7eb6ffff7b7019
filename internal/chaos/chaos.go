// Package chaos is the deterministic fault harness behind the
// crash-recover-verify tests (DESIGN.md §12). An Injector is a
// write-boundary hook: installed with runstore.SetFault it intercepts
// every record append and fsync and — as a pure function of
// its configuration and the write sequence number, never of wall clock
// or goroutine scheduling — tears a chosen write short, flips a bit in
// a chosen frame, or "crashes" the process at a chosen append or fsync
// (abandons the writer with ErrCrash, the in-process stand-in for
// SIGKILL). The same seed always damages the same byte of the same
// record, so every recovery path the tests exercise is replayable.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// ErrCrash is the error an Injector returns at its crash point. To the
// writer it is indistinguishable from the process dying: the append (or
// fsync) does not complete, and every later operation on the writer
// fails with the same error.
var ErrCrash = errors.New("chaos: crash point reached")

// Config pins an Injector's faults. The zero value injects nothing.
// Record sequence numbers count per matching file: the header is record
// 0, entries from 1 — the same numbering runstore reports in DamageError.
type Config struct {
	// Seed feeds the deterministic choices the config leaves open (which
	// bit a flip lands on). Independent from the run's world seed.
	Seed int64
	// Target restricts faults to files of one artifact format (e.g.
	// runstore.SegmentFormat). Empty matches every format.
	Target string
	// CrashAtRecord, when > 0, crashes at the Nth matching append
	// (1-based count across the process): the record's frame is cut to
	// TearBytes bytes (0 = nothing lands) and the writer is abandoned.
	CrashAtRecord int
	// TearBytes is how many leading bytes of the crashed record still
	// reach the file — the torn tail the next open must recover from.
	TearBytes int
	// FlipAtRecord, when > 0, flips one deterministically chosen payload
	// bit of the Nth matching append. The write itself succeeds: the
	// damage is latent until a reader checks the frame, exactly like bit
	// rot.
	FlipAtRecord int
	// CrashAtSync, when > 0, crashes at the Nth matching fsync instead
	// of completing it.
	CrashAtSync int
}

// Injector is a deterministic write-boundary hook. Create with New,
// install with runstore.SetFault(inj), and always clear the hook
// afterwards.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	appends int // matching appends seen (1-based when compared)
	syncs   int // matching fsyncs seen
	crashed bool

	crashOnce sync.Once
	crashedCh chan struct{}
}

// New returns an Injector for cfg. Nothing fires until the injector is
// installed with runstore.SetFault.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, crashedCh: make(chan struct{})}
}

// Crashed is closed the moment a crash point fires. Crash-recover tests
// select on it to cancel the run's context — the rest of the "process"
// stops doing useful work, as it would have if the kernel had killed it.
func (in *Injector) Crashed() <-chan struct{} { return in.crashedCh }

// matches reports whether a file of this format is fault-eligible.
func (in *Injector) matches(format string) bool {
	return in.cfg.Target == "" || in.cfg.Target == format
}

// BeforeAppend is the hook runstore calls before each record append.
func (in *Injector) BeforeAppend(format string, seq uint64, frame []byte) ([]byte, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return nil, in.crashErr()
	}
	if !in.matches(format) {
		return frame, nil
	}
	in.appends++
	if in.cfg.CrashAtRecord > 0 && in.appends == in.cfg.CrashAtRecord {
		tear := in.cfg.TearBytes
		if tear > len(frame) {
			tear = len(frame)
		}
		in.crashed = true
		return frame[:tear], in.crashErr()
	}
	if in.cfg.FlipAtRecord > 0 && in.appends == in.cfg.FlipAtRecord {
		return flipBit(in.cfg.Seed, seq, frame), nil
	}
	return frame, nil
}

// BeforeSync is the hook runstore calls before each fsync.
func (in *Injector) BeforeSync(format string, syncSeq uint64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return in.crashErr()
	}
	if !in.matches(format) {
		return nil
	}
	in.syncs++
	if in.cfg.CrashAtSync > 0 && in.syncs == in.cfg.CrashAtSync {
		in.crashed = true
		return in.crashErr()
	}
	return nil
}

// crashErr marks the crash observable and returns the sentinel wrapped
// with the injector's identity. Callers hold in.mu.
func (in *Injector) crashErr() error {
	in.crashOnce.Do(func() { close(in.crashedCh) })
	return fmt.Errorf("chaos: injector(seed=%d): %w", in.cfg.Seed, ErrCrash)
}

// flipBit flips one bit of the frame's payload region, chosen by
// hashing the seed with the record's sequence number — stable across
// runs, different across records. The frame prefix and trailing newline
// are spared so the damage reads as a checksum mismatch (mid-file
// corruption), not a framing tear.
func flipBit(seed int64, seq uint64, frame []byte) []byte {
	const prefix = 19 // runstore frame prefix: '!' + 8 hex + '!' + 8 hex + '!'
	out := append([]byte(nil), frame...)
	region := len(out) - prefix - 1 // spare the trailing '\n'
	if region <= 0 {
		return out
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, seq)
	sum := h.Sum64()
	idx := prefix + int(sum%uint64(region))
	out[idx] ^= 1 << (sum >> 32 % 8)
	return out
}
