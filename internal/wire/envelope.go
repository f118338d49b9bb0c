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

// MaxGroupID bounds the group identifier carried in a long-form envelope:
// 31 bits minus the marker bit.
const MaxGroupID = 1<<31 - 1

// envGroupMarker flags the long (group-tagged) envelope form in the first
// 32-bit word.
const envGroupMarker = uint32(1) << 31

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
