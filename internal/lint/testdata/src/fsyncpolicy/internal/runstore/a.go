// Package runstore stands in for the real durability layer: the one
// package where raw Sync and Rename are the implementation, not a
// bypass.
package runstore

import "os"

func Implementation(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename("x.tmp", "x")
}
