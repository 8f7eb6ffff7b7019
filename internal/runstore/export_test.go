package runstore

// The record codec, for the external tests in walkcodec_test.go.
type WalkRecord = walkRecord

var (
	DecodeWalkRecord = decodeWalkRecord
	DecodeWalk       = decodeWalk
	EncodeWalk       = encodeWalk
)
