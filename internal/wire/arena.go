package wire

import (
	"unsafe"

	"urcgc/internal/causal"
	"urcgc/internal/mid"
)

// chunkBytes caps the length of a chunk of an arena whose owner set no Cap:
// the decoder's, which takes a whole frame at a time. Every frame a live link
// can deliver (rt.MaxDatagram) fits one, and TestUnmarshalAllocBudget prices a
// stream of full batches at a share of one. It is also every arena's bound on
// what one header chunk's messages reference.
const chunkBytes = 64 << 10

// headerBytes is the length of one header in a header chunk.
const headerBytes = int(unsafe.Sizeof(causal.Message{}))

// Arena carves the messages a live path retains — their headers, label lists
// and payload bytes — out of chunks it allocates, so a message costs a share
// of a chunk instead of objects of its own (DESIGN.md §7 rule 6). Headers come
// from a typed chunk of causal.Message records; labels and payloads from a
// uint64-backed byte chunk, labels upwards from the front and payloads
// downwards from the back, as a frame's slab does. Every slice handed out is
// capped exactly, so an append reallocates instead of reaching a neighbour.
//
// A chunk starts at what its first taker needs and doubles up to Cap; a take
// larger than that gets a chunk of its own size. A chunk is never reused,
// recycled or pooled: the collector frees it once the last message carved
// from it is unreachable, so nothing can be handed out twice.
// A header chunk is closed early once the messages carved from it reference
// chunkBytes of labels and payloads — a dead header still references its
// bytes, so this bounds what one retained message pins, whatever the payload
// size.
//
// The zero Arena is ready. It is not safe for concurrent use: exactly one
// goroutine takes from it.
type Arena struct {
	// Cap caps the length in bytes of a header or byte chunk; zero means
	// chunkBytes (64 KiB). The owner sets it by what one take is: a
	// decoder takes a frame, a sender one header (DESIGN.md §7 rule 6).
	Cap int

	headers []causal.Message // what is left of the header chunk
	hdrLen  int              // the header chunk's length
	reach   int              // label and payload bytes its headers reference

	bytes    slab // the byte chunk
	bytesLen int  // its length
}

// carve returns n zeroed message headers that will reference reach bytes of
// labels and payloads.
func (a *Arena) carve(n, reach int) []causal.Message {
	if out := n > len(a.headers); out || (a.reach > 0 && a.reach+reach > chunkBytes) {
		// A chunk that ran out is followed by one twice its length; one
		// closed by its reach, by one as long as it got.
		used := a.hdrLen - len(a.headers)
		if out {
			used *= 2
		}
		a.hdrLen = max(n, min(used, a.limit()/headerBytes))
		a.headers, a.reach = make([]causal.Message, a.hdrLen), 0
	}
	h := a.headers[:n:n]
	a.headers, a.reach = a.headers[n:], a.reach+reach
	return h
}

// slab returns the byte chunk with at least size bytes free, starting a new
// one when it is short.
func (a *Arena) slab(size int) *slab {
	if size > a.bytes.hi-a.bytes.lo {
		a.bytesLen = max(size, min(2*a.bytesLen, a.limit()))
		a.bytes = newSlab(a.bytesLen)
	}
	return &a.bytes
}

// limit is the cap on a chunk's length in bytes.
func (a *Arena) limit() int {
	if a.Cap > 0 {
		return a.Cap
	}
	return chunkBytes
}

// Message returns a zeroed message record for a message whose labels and
// payload total reach bytes.
func (a *Arena) Message(reach int) *causal.Message { return &a.carve(1, reach)[0] }

// Labels returns a zeroed list of n labels; nil for none.
func (a *Arena) Labels(n int) mid.DepList {
	if n == 0 {
		return nil
	}
	d, _ := a.slab(8 * n).deps(n)
	return d
}

// slab is a stretch of label and payload bytes: a frame's own, or an arena's
// byte chunk shared by the frames carved from it. Label lists are carved
// upwards from the front, where the 8-byte stride of mid.MID keeps each one
// aligned; payloads downwards from the back, where alignment does not matter —
// so a slab of exactly a frame's variable bytes is used to the last byte, with
// no padding to budget for. Backing it with uint64 words guarantees the front
// is 8-byte aligned and holds no pointers, which is what lets a stretch of it
// be viewed as []mid.MID.
type slab struct {
	b      []byte
	lo, hi int
}

func newSlab(size int) slab {
	if size <= 0 {
		return slab{}
	}
	words := make([]uint64, (size+7)/8)
	return slab{b: unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size), hi: size}
}

// deps carves a list of n labels, or reports false when the frame's counts
// claim more than the frame holds.
func (s *slab) deps(n int) (mid.DepList, bool) {
	if 8*n > s.hi-s.lo {
		return nil, false
	}
	d := unsafe.Slice((*mid.MID)(unsafe.Pointer(&s.b[s.lo])), n)
	s.lo += 8 * n
	return d[:n:n], true
}

// bytes carves room for an n-byte payload, or reports false like deps.
func (s *slab) bytes(n int) ([]byte, bool) {
	if n > s.hi-s.lo {
		return nil, false
	}
	s.hi -= n
	return s.b[s.hi : s.hi+n : s.hi+n], true
}
