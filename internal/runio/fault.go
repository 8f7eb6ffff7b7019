package runio

import (
	"sync"
	"sync/atomic"
)

// --- Fsync policy ------------------------------------------------------------

// SyncPolicy chooses when a line file fsyncs its appends. The policy
// bounds how much acknowledged-but-unsynced data a crash can lose; the
// framed format guarantees that whatever the crash does lose is
// detected and classified on the next open rather than silently read.
type SyncPolicy int

const (
	// SyncDefault resolves to the package-level default
	// (SetDefaultSyncPolicy; SyncInterval out of the box).
	SyncDefault SyncPolicy = iota
	// SyncNever leaves flushing entirely to the OS. Fastest; a crash
	// can lose every record since the last kernel writeback.
	SyncNever
	// SyncInterval fsyncs every syncIntervalRecords appends or
	// syncIntervalBytes bytes, whichever comes first. The default: a
	// crash loses at most one interval of records.
	SyncInterval
	// SyncEveryRecord fsyncs after each append. Slowest; a crash loses
	// at most the record being written (a torn tail).
	SyncEveryRecord
)

const (
	syncIntervalRecords = 32
	syncIntervalBytes   = 1 << 20
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncEveryRecord:
		return "every-record"
	default:
		return "default"
	}
}

// ParseSyncPolicy parses the CLI spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, bool) {
	switch s {
	case "never":
		return SyncNever, true
	case "", "interval", "default":
		return SyncInterval, true
	case "every-record", "always":
		return SyncEveryRecord, true
	}
	return SyncDefault, false
}

// defaultSyncPolicy is the process-wide policy SyncDefault resolves to,
// set once at CLI startup (-fsync) and read at every append decision.
var defaultSyncPolicy atomic.Int32

// SetDefaultSyncPolicy sets the process-wide policy that SyncDefault
// resolves to. SyncDefault itself is replaced by SyncInterval.
func SetDefaultSyncPolicy(p SyncPolicy) {
	if p == SyncDefault {
		p = SyncInterval
	}
	defaultSyncPolicy.Store(int32(p))
}

// resolve maps SyncDefault to the process-wide default.
func (p SyncPolicy) resolve() SyncPolicy {
	if p != SyncDefault {
		return p
	}
	if d := SyncPolicy(defaultSyncPolicy.Load()); d != SyncDefault {
		return d
	}
	return SyncInterval
}

// --- Fault injection ---------------------------------------------------------

// Fault is the chaos hook installed at the write boundary: every line
// file consults it before writing a record and before fsyncing. The
// production value is nil (zero cost beyond an atomic load); tests
// install internal/chaos's deterministic Injector to simulate torn
// writes, bit flips and crash points. See DESIGN.md §12.
type Fault interface {
	// BeforeAppend sees the exact frame bytes about to be written as
	// record seq (header = 0, entries from 1) of a file with the given
	// artifact format. It may return different bytes to write instead
	// (torn or flipped), and/or an error: a non-nil error abandons the
	// writer after the returned bytes land — the in-process equivalent
	// of the process dying mid-write. The writer reuses frame's buffer
	// after the call, so the hook must not keep it.
	BeforeAppend(format string, seq uint64, frame []byte) ([]byte, error)
	// BeforeSync runs before each fsync; a non-nil error abandons the
	// writer without syncing (a crash at the fsync point).
	BeforeSync(format string, syncSeq uint64) error
}

var (
	faultMu        sync.Mutex
	installedFault atomic.Value // of faultBox
)

// faultBox lets atomic.Value swap between nil and non-nil interfaces.
type faultBox struct{ f Fault }

// SetFault installs (or, with nil, clears) the process-wide fault
// hook. Tests only; never leave a fault installed across tests.
func SetFault(f Fault) {
	faultMu.Lock()
	defer faultMu.Unlock()
	installedFault.Store(faultBox{f: f})
}

func currentFault() Fault {
	v, _ := installedFault.Load().(faultBox)
	return v.f
}
