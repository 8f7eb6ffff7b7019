package runstore

// The record codec and store internals, for the external tests in
// walkcodec_test.go.
type WalkRecord = walkRecord

var (
	DecodeWalkRecord = decodeWalkRecord
	DecodeWalk       = decodeWalk
	EncodeWalkRecord = encodeWalkRecord
	EncodeWalk       = encodeWalk
)

// SetSegWalks makes st seal a segment every n walks.
func SetSegWalks(st Store, n int) { st.(*segmentStore).segWalks = n }

// RawRecord returns the stored record of walk idx.
func RawRecord(st Store, idx int) ([]byte, error) { return st.(*segmentStore).rawRecord(idx) }
