package fsyncpolicy

import "os"

func bad(f *os.File) error {
	if err := f.Sync(); err != nil { // want `os\.File\.Sync outside internal/runstore`
		return err
	}
	return os.Rename("a.tmp", "a") // want `os\.Rename outside internal/runstore`
}

type wrapper struct{ f *os.File }

func badThroughField(w wrapper) error {
	return w.f.Sync() // want `os\.File\.Sync outside internal/runstore`
}

// Sync on a non-os type stays legal: the rule keys on the receiver's
// identity, not the method name.
type flusher struct{}

func (flusher) Sync() error { return nil }

func pure(fl flusher, f *os.File) {
	_ = fl.Sync()
	_, _ = f.Stat()      // other *os.File methods stay legal
	_ = os.Remove("tmp") // and so do other os functions
}

func allowedTrailing(f *os.File) error {
	return f.Sync() //crumb:allow fsyncpolicy fixture: trailing directive exempts this line
}

//crumb:allow fsyncpolicy fixture: function-scoped waiver
func allowedByDoc() error {
	return os.Rename("b.tmp", "b")
}

func allowedNextLine() error {
	//crumb:allow fsyncpolicy fixture: standalone directive exempts the next line
	return os.Rename("c.tmp", "c")
}

func wrongDirectiveName(f *os.File) error {
	//crumb:allow maporder a directive for another analyzer does not cover fsyncpolicy
	return f.Sync() // want `os\.File\.Sync outside internal/runstore`
}

// The DESIGN.md §9 mutation rows no test catches, as fixture cases.

// crumbcruncher -out fsyncing its output file on the way out.
func syncOnClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { f.Sync(); f.Close() }() // want `os\.File\.Sync outside internal/runstore`
	_, err = f.WriteString("{}")
	return err
}

// The telemetry trace writer replacing its file by hand.
func writeThenRename(path string, data []byte) error {
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path) // want `os\.Rename outside internal/runstore`
}
