package runstore

import (
	"sync"
	"sync/atomic"
)

// faultHook is the chaos hook installed at the write boundary: every
// line file consults it before writing a record and before fsyncing.
// The production value is nil (zero cost beyond an atomic load); tests
// install internal/chaos's deterministic Injector with SetFault to
// simulate torn writes, bit flips and crash points. See DESIGN.md §12.
type faultHook interface {
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
type faultBox struct{ f faultHook }

// SetFault installs (or, with nil, clears) the process-wide fault
// hook. Tests only; never leave a fault installed across tests.
func SetFault(f faultHook) {
	faultMu.Lock()
	defer faultMu.Unlock()
	installedFault.Store(faultBox{f: f})
}

func currentFault() faultHook {
	v, _ := installedFault.Load().(faultBox)
	return v.f
}
