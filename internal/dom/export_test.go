package dom

// FillDocument parses html into d, as ParseDocument does into a pooled
// document. d must be new or reset.
func FillDocument(d *Document, html string) { d.fill(html) }

// ResetDocument clears d as Release does, without returning it to the
// pool, so a test can parse into the same blocks again.
func ResetDocument(d *Document) { d.reset() }
