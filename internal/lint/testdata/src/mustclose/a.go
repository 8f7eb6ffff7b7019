// Fixture for the mustclose analyzer: straight-line, branch, defer and
// cross-package (fact-driven) cases over stores, cursors and gzip
// readers.
package mustclose

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"

	"mustclose/internal/runstore"
)

var errEmpty = errors.New("empty")

// Straight-line: acquired, never closed, falls off the end.
func leakEnd(dir string) {
	st, err := runstore.Open(dir) // want `run store st is not closed before the function returns`
	if err != nil {
		return
	}
	_ = st.Len()
}

// Branch: closed on the happy path, leaked on an early return.
func leakBranch(dir string, bail bool) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	if bail {
		return nil // want `run store st acquired at a\.go:[0-9]+ is not closed on this return path`
	}
	return st.Close()
}

// Defer is the canonical fix.
func deferOK(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	return use(st)
}

// use borrows the store (empty disposition fact, same package).
func use(st *runstore.Store) error {
	_ = st.Len()
	return nil
}

// Discarding the handle means Close can never run.
func discard(dir string) {
	runstore.Open(dir) // want `run store discarded; Close will never run and the run store leaks`
}

// Reacquiring before Close loses the first handle.
func reassign(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	st, err = runstore.Open(dir) // want `run store st reassigned before Close; the run store acquired at a\.go:[0-9]+ is lost`
	if err != nil {
		return err
	}
	return st.Close()
}

// Cross-package, fact-driven: Drain's fact says it closes the cursor,
// so handing it over discharges the obligation.
func crossDrain(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	cur := st.Iter()
	_, derr := runstore.Drain(cur)
	return derr
}

// Cross-package: Keep's fact says it retains the cursor — ownership
// transferred, nothing to report here.
func crossKeep(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	cur := st.Iter()
	runstore.Keep(cur)
	return nil
}

// Cross-package: Count's fact proves it only borrows the cursor, so the
// leak is still ours — the case a factless analysis goes silent on.
func crossBorrowLeak(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	cur := st.Iter()
	if runstore.Count(cur) == 0 {
		return errEmpty // want `cursor cur acquired at a\.go:[0-9]+ is not closed on this return path`
	}
	return nil // want `cursor cur acquired at a\.go:[0-9]+ is not closed on this return path`
}

// Same shape, closed properly.
func crossBorrowOK(dir string) error {
	st, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	cur := st.Iter()
	defer cur.Close()
	if runstore.Count(cur) == 0 {
		return errEmpty
	}
	return nil
}

// gzip readers leak on error paths too; io.ReadAll is a known borrow.
func gzLeak(raw []byte) ([]byte, error) {
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		return nil, err // want `gzip reader gz acquired at a\.go:[0-9]+ is not closed on this return path`
	}
	return data, nil // want `gzip reader gz acquired at a\.go:[0-9]+ is not closed on this return path`
}

func gzOK(raw []byte) ([]byte, error) {
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return io.ReadAll(gz)
}

// The directive is the sanctioned escape hatch.
func allowLeak(dir string) {
	st, err := runstore.Open(dir) //crumb:allow mustclose fixture: leak intentionally waived
	if err != nil {
		return
	}
	_ = st.Len()
}

// The DESIGN.md §9 mutation row no test catches, as a fixture case:
// core's storeSource.ForEachWalk without its deferred cur.Close().
func forEachWalk(st *runstore.Store, fn func() error) error {
	cur := st.Iter() // want `cursor cur is not closed before the function returns`
	for {
		if !cur.Next() {
			return nil // want `cursor cur acquired at a\.go:[0-9]+ is not closed on this return path`
		}
		if err := fn(); err != nil {
			return err // want `cursor cur acquired at a\.go:[0-9]+ is not closed on this return path`
		}
	}
}
