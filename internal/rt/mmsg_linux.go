//go:build linux && (amd64 || arm64)

package rt

import (
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"unsafe"

	"urcgc/internal/mid"
	"urcgc/internal/wire"
)

// Burst datagram I/O via sendmmsg(2)/recvmmsg(2), straight from the
// syscall package — no cgo, no external modules. One shard loop's flush or
// one reader wakeup moves a whole burst of datagrams per syscall. Anything
// unusual — an IPv6 peer, a kernel without the syscalls, a raw-conn
// failure — falls back to the classic one-syscall-per-datagram path.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-written datagram length. Go's natural alignment reproduces the
// kernel's padding on every linux target.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// mmsgBurst is how many datagrams one recvmmsg may drain.
const mmsgBurst = 8

// sendmmsgRaw/recvmmsgRaw are the raw burst syscalls behind one seam, so
// the runtime-fallback tests can make a kernel that built the burst path
// refuse it afterwards (ENOSYS) without a special kernel. Replaced only in
// tests, before any node starts.
var sendmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
	r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(n), 0, 0, 0)
	return r, errno
}

var recvmmsgRaw = func(fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
	r, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(n), 0, 0, 0)
	return r, errno
}

// burstSender ships a shard loop's pending bundles — one datagram per peer —
// in one sendmmsg: a peer's lone frame as it is, two or more chained behind
// the bundle marker and their length words by the datagram's iovecs, so no
// frame is copied. Owned by one shard goroutine; no locking.
type burstSender struct {
	rc       syscall.RawConn
	sas      []syscall.RawSockaddrInet4 // per-peer, precomputed
	hdrs     []mmsghdr                  // one per peer
	iovs     []syscall.Iovec            // every datagram's chain, back to back
	words    []byte                     // the marker and length words the chains point into
	disabled bool                       // kernel refused sendmmsg: classic path from now on

	// One burst's progress, in fields rather than locals so the raw-conn
	// callback — write, built once — captures nothing per send: a burst
	// costs no allocation.
	write    func(fd uintptr) bool
	want     int  // datagrams in the burst
	sent     int  // of which the kernel took
	errs     int  // and refused for good
	fellBack bool // sendmmsg itself was refused before anything left
}

// newBurstSender returns a sender to the given peers, or nil when the burst
// path cannot be used (an IPv6 peer, no raw conn), which callers treat as
// "use WriteToUDP per datagram".
func newBurstSender(conn *net.UDPConn, peers []*net.UDPAddr) *burstSender {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	sas := make([]syscall.RawSockaddrInet4, len(peers))
	for i, a := range peers {
		ip4 := a.IP.To4()
		if ip4 == nil {
			return nil // IPv6 peer: classic path
		}
		p := uint16(a.Port)
		// sin_port is network byte order read as a native uint16.
		sas[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: p<<8 | p>>8}
		copy(sas[i].Addr[:], ip4)
	}
	m := &burstSender{rc: rc, sas: sas, hdrs: make([]mmsghdr, len(peers))}
	m.write = m.writeBurst
	return m
}

// send ships each listed peer its pending frames as one datagram and reports
// how many datagrams left and how many were refused for good (loss is an
// omission the protocol repairs; the caller counts it). ok is false when the
// kernel refused sendmmsg itself before anything left, or there is no
// sender: the caller takes the classic path for this flush and, disabled
// being set, every later one. The frames must stay untouched until send
// returns.
func (m *burstSender) send(peers []mid.ProcID, pending [][]*sharedBuf) (sent, errs int, ok bool) {
	if m == nil || m.disabled {
		return 0, 0, false
	}
	words, iovs := 0, 0
	for _, p := range peers {
		if k := len(pending[p]); k > 1 {
			words += 1 + k
			iovs += 2 * k
		} else {
			iovs++
		}
	}
	// Both arrays are sized before any pointer into them is taken.
	if cap(m.words) < 4*words {
		m.words = make([]byte, 0, 4*words)
	}
	if cap(m.iovs) < iovs {
		m.iovs = make([]syscall.Iovec, iovs)
	}
	m.words, m.iovs = m.words[:0], m.iovs[:cap(m.iovs)]
	iov := 0
	for i, p := range peers {
		frames, first := pending[p], iov
		if len(frames) == 1 {
			m.chain(iov, frames[0].buf)
			iov++
		} else {
			// [marker, len0] frame0 [len1] frame1 ...: the marker shares the
			// first length word's iovec.
			w := len(m.words)
			m.words = wire.AppendBundleHeader(m.words)
			for _, f := range frames {
				m.words = wire.AppendBundled(m.words, f.buf)
				m.chain(iov, m.words[w:])
				m.chain(iov+1, f.buf)
				iov, w = iov+2, len(m.words)
			}
		}
		m.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.sas[p])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &m.iovs[first],
			Iovlen:  uint64(iov - first),
		}}
	}
	m.want, m.sent, m.errs, m.fellBack = len(peers), 0, 0, false
	if werr := m.rc.Write(m.write); werr != nil {
		m.errs = m.want - m.sent // raw-conn failure (e.g. closing socket)
	}
	return m.sent, m.errs, !m.fellBack
}

// chain points iovec i at b.
func (m *burstSender) chain(i int, b []byte) {
	m.iovs[i].Base = &b[0]
	m.iovs[i].SetLen(len(b))
}

// writeBurst is the raw-conn write callback: it pushes the prepared headers
// through sendmmsg until all are taken, the socket must be waited for
// (false), or the kernel refuses.
func (m *burstSender) writeBurst(fd uintptr) bool {
	for m.sent < m.want {
		r, errno := sendmmsgRaw(fd, &m.hdrs[m.sent], m.want-m.sent)
		switch errno {
		case 0:
			m.sent += int(r)
		case syscall.EAGAIN:
			return false // wait for writability, then resume
		case syscall.EINTR:
			continue
		case syscall.ENOSYS, syscall.EOPNOTSUPP:
			if m.sent == 0 {
				m.disabled = true
				m.fellBack = true // nothing left the socket yet
				return true
			}
			m.errs = m.want - m.sent
			return true
		default:
			m.errs = m.want - m.sent
			return true
		}
	}
	return true
}

// burstSlot is one receive buffer: one byte of slack past MaxDatagram
// distinguishes an exactly-full datagram from a kernel-truncated one, like
// the classic reader.
const burstSlot = MaxDatagram + 1

// mappedSets counts the receive sets mapped and not yet released.
var mappedSets atomic.Int64

// newReceiverBuffers maps a receiver's slab outside the Go heap — where its
// half megabyte, little of which traffic ever touches, would still count as
// live and pace the collector — or returns nil.
func newReceiverBuffers(rc syscall.RawConn) *mmsgReceiver {
	slab, err := syscall.Mmap(-1, 0, mmsgBurst*burstSlot,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	mappedSets.Add(1)
	m := &mmsgReceiver{
		rc:   rc,
		slab: slab,
		bufs: make([][]byte, mmsgBurst),
		hdrs: make([]mmsghdr, mmsgBurst),
		iovs: make([]syscall.Iovec, mmsgBurst),
		sas:  make([]syscall.RawSockaddrAny, mmsgBurst),
	}
	for i := range m.bufs {
		m.bufs[i] = slab[i*burstSlot : (i+1)*burstSlot : (i+1)*burstSlot]
	}
	m.read = m.readBurst
	return m
}

// mmsgReceiver drains the socket in recvmmsg bursts. Owned by the reader
// goroutine; no locking.
type mmsgReceiver struct {
	rc   syscall.RawConn
	slab []byte   // mapped by newReceiverBuffers, unmapped by release
	bufs [][]byte // slices of slab
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrAny

	// One wakeup's outcome, in fields for the same reason as the sender's:
	// read, the raw-conn callback, is built once.
	read   func(fd uintptr) bool
	got    int
	sysErr error
}

// newMmsgReceiver returns nil when burst receive cannot be used; the
// reader then runs its classic ReadFromUDP loop.
func newMmsgReceiver(conn *net.UDPConn) *mmsgReceiver {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	return newReceiverBuffers(rc)
}

// release unmaps the slab. The reader calls it once, when it stops reading
// bursts, and must not touch a packet afterwards.
func (m *mmsgReceiver) release() {
	if syscall.Munmap(m.slab) == nil {
		mappedSets.Add(-1)
	}
}

// recv blocks until at least one datagram arrives and returns how many
// burst slots the kernel filled. errMmsgUnsupported asks the caller to
// fall back to the classic reader.
func (m *mmsgReceiver) recv() (int, error) {
	for i := range m.hdrs {
		m.iovs[i].Base = &m.bufs[i][0]
		m.iovs[i].SetLen(len(m.bufs[i]))
		m.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.sas[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &m.iovs[i],
			Iovlen:  1,
		}}
	}
	m.got, m.sysErr = 0, nil
	if err := m.rc.Read(m.read); err != nil {
		return 0, err // raw-conn failure: the socket is closing
	}
	return m.got, m.sysErr
}

// readBurst is the raw-conn read callback: one recvmmsg, retried by the
// poller (false) while the socket has nothing.
func (m *mmsgReceiver) readBurst(fd uintptr) bool {
	r, errno := recvmmsgRaw(fd, &m.hdrs[0], len(m.hdrs))
	switch errno {
	case 0:
		m.got = int(r)
	case syscall.EAGAIN, syscall.EINTR:
		return false // wait on the poller, then retry
	case syscall.ENOSYS, syscall.EOPNOTSUPP:
		m.sysErr = errMmsgUnsupported
	default:
		m.sysErr = errno
	}
	return true
}

// packet returns slot i's received bytes, valid until the next recv.
func (m *mmsgReceiver) packet(i int) []byte {
	return m.bufs[i][:m.hdrs[i].len]
}

// from decodes slot i's source address, for warnings only. The port byte
// swap assumes a little-endian host, which covers every supported linux
// target; a wrong port in a warning line is cosmetic anyway.
func (m *mmsgReceiver) from(i int) netip.AddrPort {
	sa := &m.sas[i]
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), sa4.Port>>8|sa4.Port<<8)
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr), sa6.Port>>8|sa6.Port<<8)
	}
	return netip.AddrPort{}
}
