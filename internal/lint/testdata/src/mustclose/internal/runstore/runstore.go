// Package runstore is a fixture stand-in for the real run store. Its
// helpers exist to exercise the disposition facts mustclose exports:
// Drain releases the cursor it is handed, Keep retains it, Count only
// borrows it.
package runstore

// Store is a fixture run store handle.
type Store struct{ open bool }

// Open opens a fixture store.
func Open(dir string) (*Store, error) {
	_ = dir
	return &Store{open: true}, nil
}

// Close releases the store.
func (s *Store) Close() error {
	s.open = false
	return nil
}

// Len borrows the store.
func (s *Store) Len() int { return 0 }

// Cursor iterates a fixture store.
type Cursor struct{ n int }

// Iter acquires a cursor (a method source, like the real Store.Iter).
func (s *Store) Iter() *Cursor { return &Cursor{n: 3} }

// Next borrows the cursor.
func (c *Cursor) Next() bool {
	c.n--
	return c.n > 0
}

// Close releases the cursor.
func (c *Cursor) Close() error { return nil }

// Drain consumes and closes the cursor: callers hand off ownership and
// must not close it again. Exports Releases={0}.
func Drain(c *Cursor) (int, error) {
	defer c.Close()
	n := 0
	for c.Next() {
		n++
	}
	return n, nil
}

var kept *Cursor

// Keep parks the cursor for later use: ownership transfers to the
// package. Exports Retains={0}.
func Keep(c *Cursor) { kept = c }

// Count borrows the cursor: the caller keeps its Close obligation.
// Exports an empty disposition (proven borrow).
func Count(c *Cursor) int {
	n := 0
	for c.Next() {
		n++
	}
	return n
}
