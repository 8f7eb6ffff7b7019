package runstore

import "crumbcruncher/internal/crawler"

// The record codec and store internals, for the external tests in
// walkcodec_test.go.
type WalkRecord = walkRecord

var (
	EncodeWalkRecord = encodeWalkRecord
	EncodeWalk       = encodeWalk
)

// decodeWalkRecord decodes raw with a fresh fast decoder.
func decodeWalkRecord(raw []byte) (walkRecord, bool) { return new(walkDecoder).record(raw) }

var DecodeWalkRecord = decodeWalkRecord

// DecodeWalk decodes the record of walk idx with a fresh decoder.
func DecodeWalk(raw []byte, idx int) (*crawler.Walk, error) {
	return decodeWalk(new(walkDecoder), raw, idx)
}

// Decoder decodes records one after another with one reused decoder, as
// a pooled Get does.
type Decoder struct{ d walkDecoder }

func (d *Decoder) DecodeWalkRecord(raw []byte) (WalkRecord, bool) { return d.d.record(raw) }

// SetSegWalks makes st seal a segment every n walks.
func SetSegWalks(st Store, n int) { st.(*segmentStore).segWalks = n }

// RawRecord returns a copy of the stored record of walk idx.
func RawRecord(st Store, idx int) ([]byte, error) { return st.(*segmentStore).appendRecord(nil, idx) }
