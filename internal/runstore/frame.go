package runstore

import (
	"hash/crc32"
	"slices"
)

// Frame layout (format v2). Every record — the header line included —
// is one line of the shape
//
//	'!' crc32 '!' length '!' payload '\n'
//	     8 hex    8 hex     JSON, no raw newlines
//
// where crc32 is the IEEE checksum of the payload bytes and length is
// the payload's byte count. The '!' marker cannot open a JSON value, so
// an unframed line (such as a pre-framing v1 plain-JSONL record) never
// parses as a frame and reads as corrupt. The length prefix tells a
// truncated payload (torn write: the line is shorter than the frame
// declares) from a complete-but-mangled one (corruption: the declared
// length is all there, but the checksum disagrees); DESIGN.md §12
// records the resulting classification matrix.
const (
	frameMark      = '!'
	framePrefixLen = 19 // '!' + 8 + '!' + 8 + '!'
)

// frameKind classifies one scanned line.
type frameKind int

const (
	frameOK frameKind = iota
	// frameShort: the line holds less than the frame declares — the
	// shape truncation leaves. Torn tail at the end of a file, corrupt
	// anywhere else.
	frameShort
	// frameBad: the frame structure or checksum is wrong even though
	// the declared length is satisfied — the shape bit flips leave.
	// Corrupt wherever it appears.
	frameBad
)

// appendFrame appends payload's v2 frame line to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = slices.Grow(buf, framePrefixLen+len(payload)+1)
	buf = append(buf, frameMark)
	buf = appendHex32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, frameMark)
	buf = appendHex32(buf, uint32(len(payload)))
	buf = append(buf, frameMark)
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf
}

// parseFrame validates one line (without its trailing newline) against
// the frame layout and returns the payload.
func parseFrame(line []byte) ([]byte, frameKind) {
	if len(line) < framePrefixLen {
		// A tear leaves a strict prefix of a valid frame; anything else
		// this short was never a frame at all.
		if isFramePrefix(line) {
			return nil, frameShort
		}
		return nil, frameBad
	}
	if line[0] != frameMark || line[9] != frameMark || line[18] != frameMark {
		return nil, frameBad
	}
	sum, ok := parseHex32(line[1:9])
	if !ok {
		return nil, frameBad
	}
	length, ok := parseHex32(line[10:18])
	if !ok {
		return nil, frameBad
	}
	payload := line[framePrefixLen:]
	switch {
	case uint32(len(payload)) < length:
		return nil, frameShort
	case uint32(len(payload)) > length:
		return nil, frameBad
	case crc32.ChecksumIEEE(payload) != sum:
		return nil, frameBad
	}
	return payload, frameOK
}

// isFramePrefix reports whether b could be the leading bytes of a
// valid frame line — what a torn write leaves when it cuts inside the
// frame prefix itself.
func isFramePrefix(b []byte) bool {
	for i, c := range b {
		switch i {
		case 0, 9, 18:
			if c != frameMark {
				return false
			}
		default:
			if !(('0' <= c && c <= '9') || ('a' <= c && c <= 'f')) {
				return false
			}
		}
	}
	return true
}

func appendHex32(buf []byte, v uint32) []byte {
	for shift := 28; shift >= 0; shift -= 4 {
		buf = append(buf, hexDigits[(v>>shift)&0xf])
	}
	return buf
}

func parseHex32(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		var d uint32
		switch {
		case '0' <= c && c <= '9':
			d = uint32(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
