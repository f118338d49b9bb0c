package wire

import (
	"encoding/binary"
	"fmt"

	"urcgc/internal/mid"
)

// Frame envelope: the runtime prefix in front of every marshaled PDU on a
// datagram socket, identifying the sending member — and, since the sharded
// multi-group runtime, the group the frame belongs to.
//
// Two canonical forms share one address space:
//
//	group 0:  [src:4][body]              — byte-identical to the pre-group
//	                                       framing, so single-group nodes
//	                                       and multi-group nodes carrying
//	                                       only group 0 interoperate.
//	group>0:  [1<<31|group:4][src:4][body]
//
// A member identifier is a non-negative int32, so the first word's high bit
// cleanly discriminates the two forms: legacy receivers see a group-tagged
// frame as a negative source and drop it as bad-src — a by-design omission,
// not corruption.
//
// A datagram carrying two or more frames to one peer is a bundle:
//
//	bundle:   [1<<31:4]([len:4][frame])+
//
// Its first word is the long form of group 0, which ParseEnvelope refuses,
// so a receiver that predates bundles drops one as a bad envelope (an
// omission). A frame inside a bundle is a plain frame, never a bundle.

// MaxGroupID bounds the group identifier carried in a long-form envelope:
// 31 bits minus the marker bit.
const MaxGroupID = 1<<31 - 1

// envGroupMarker flags the long (group-tagged) envelope form in the first
// 32-bit word.
const envGroupMarker = uint32(1) << 31

// BundleHeaderSize is the length of a bundle's marker word.
const BundleHeaderSize = 4

// ErrBadBundle is returned by NextBundled for a bundle whose framing is
// broken: a zero or overlong length, a truncated length word, a nested bundle.
var ErrBadBundle = fmt.Errorf("wire: bad frame bundle")

// ErrBadEnvelope is returned by ParseEnvelope for a frame too short for its
// form or using the non-canonical long form for group 0.
var ErrBadEnvelope = fmt.Errorf("wire: bad frame envelope")

// EnvelopeSize returns the envelope prefix length for a group: 4 bytes for
// group 0 (the wire-compatible short form), 8 for any other group.
func EnvelopeSize(group uint32) int {
	if group == 0 {
		return 4
	}
	return 8
}

// AppendEnvelope appends the canonical envelope for (group, src) to dst and
// returns the extended slice. Group 0 always takes the short form, so its
// frames stay byte-identical to the pre-group framing.
func AppendEnvelope(dst []byte, group uint32, src mid.ProcID) []byte {
	if group == 0 {
		return binary.BigEndian.AppendUint32(dst, uint32(src))
	}
	dst = binary.BigEndian.AppendUint32(dst, envGroupMarker|group)
	return binary.BigEndian.AppendUint32(dst, uint32(src))
}

// MarshalFrame encodes one datagram — the envelope for (group, src), then pdu
// behind it — into a single pooled buffer: the header is reserved up front, so
// the PDU marshals directly behind it with no second buffer or copy. The
// caller owns the result, error or not, until PutBuf.
func MarshalFrame(group uint32, src mid.ProcID, pdu PDU) ([]byte, error) {
	buf := GetBuf(EnvelopeSize(group) + pdu.EncodedSize())
	return MarshalAppend(AppendEnvelope(buf, group, src), pdu)
}

// ParseEnvelope splits a received frame into its group, source member and
// PDU body. The body aliases pkt; callers decode it before reusing the
// buffer. Source validity (0 <= src < N) is the caller's check — the
// envelope does not know the group cardinality.
func ParseEnvelope(pkt []byte) (group uint32, src mid.ProcID, body []byte, err error) {
	if len(pkt) < 4 {
		return 0, 0, nil, ErrBadEnvelope
	}
	first := binary.BigEndian.Uint32(pkt)
	if first&envGroupMarker == 0 {
		return 0, mid.ProcID(int32(first)), pkt[4:], nil
	}
	group = first &^ envGroupMarker
	if group == 0 || len(pkt) < 8 {
		// Long-form group 0 is non-canonical: exactly one encoding exists
		// per (group, src), so frames compare byte-for-byte.
		return 0, 0, nil, ErrBadEnvelope
	}
	return group, mid.ProcID(int32(binary.BigEndian.Uint32(pkt[4:]))), pkt[8:], nil
}

// IsBundle reports whether pkt is a bundle of frames rather than one frame.
func IsBundle(pkt []byte) bool {
	return len(pkt) >= BundleHeaderSize && binary.BigEndian.Uint32(pkt) == envGroupMarker
}

// AppendBundleHeader appends a bundle's marker word to dst.
func AppendBundleHeader(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, envGroupMarker)
}

// AppendBundled appends frame's length word to dst, the part of a bundle
// that precedes the frame itself; the caller appends (or chains) the frame.
func AppendBundled(dst []byte, frame []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(len(frame)))
}

// BundledSize is what one frame adds to a bundle: its length word and itself.
func BundledSize(frame []byte) int { return 4 + len(frame) }

// NextBundled splits the first frame off rest, the part of a bundle behind its
// marker (or behind the frames already split off), and returns it and what
// follows it. The frame aliases rest. It never reads past rest: a length word
// cut short, a zero length, a length past the end and a nested bundle are
// ErrBadBundle.
func NextBundled(rest []byte) (frame, tail []byte, err error) {
	if len(rest) < 4 {
		return nil, nil, ErrBadBundle
	}
	n := binary.BigEndian.Uint32(rest)
	if n == 0 || uint64(n) > uint64(len(rest)-4) {
		return nil, nil, ErrBadBundle
	}
	frame = rest[4 : 4+n]
	if IsBundle(frame) {
		return nil, nil, ErrBadBundle
	}
	return frame, rest[4+n:], nil
}
