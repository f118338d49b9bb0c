//go:build linux && (amd64 || arm64)

package rt

import (
	"net"
	"sync"
	"syscall"
	"unsafe"

	"urcgc/internal/mid"
)

// Burst datagram I/O via sendmmsg(2)/recvmmsg(2), straight from the
// syscall package — no cgo, no external modules. One broadcast fan-out or
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

// mmsgSender ships one frame to many destinations in a single sendmmsg.
// Owned by the protocol loop goroutine; no locking.
type mmsgSender struct {
	rc       syscall.RawConn
	sas      []syscall.RawSockaddrInet4 // per-peer, precomputed
	hdrs     []mmsghdr
	iovs     []syscall.Iovec
	disabled bool // kernel refused sendmmsg: classic path from now on
}

// newMmsgSender returns nil when the burst path cannot be used, which the
// callers treat as "use WriteToUDP per destination".
func newMmsgSender(n *UDPNode) *mmsgSender {
	rc, err := n.conn.SyscallConn()
	if err != nil {
		return nil
	}
	sas := make([]syscall.RawSockaddrInet4, len(n.peers))
	for i, a := range n.peers {
		ip4 := a.IP.To4()
		if ip4 == nil {
			return nil // IPv6 peer: classic path
		}
		p := uint16(a.Port)
		// sin_port is network byte order read as a native uint16.
		sas[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: p<<8 | p>>8}
		copy(sas[i].Addr[:], ip4)
	}
	return &mmsgSender{
		rc:   rc,
		sas:  sas,
		hdrs: make([]mmsghdr, len(n.peers)),
		iovs: make([]syscall.Iovec, len(n.peers)),
	}
}

// send ships frame to every listed destination in as few sendmmsg calls
// as possible, with full socket accounting. It reports false when the
// caller should take the classic per-destination path instead (nil
// sender, burst of one, or sendmmsg unsupported).
func (m *mmsgSender) send(n *UDPNode, dsts []mid.ProcID, frame []byte) bool {
	if m == nil || m.disabled || len(dsts) < 2 || len(frame) == 0 {
		return false
	}
	for i, dst := range dsts {
		m.iovs[i].Base = &frame[0]
		m.iovs[i].SetLen(len(frame))
		m.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.sas[dst])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &m.iovs[i],
			Iovlen:  1,
		}}
	}
	sent, errs, fellBack := 0, 0, false
	werr := m.rc.Write(func(fd uintptr) bool {
		for sent < len(dsts) {
			r, errno := sendmmsgRaw(fd, &m.hdrs[sent], len(dsts)-sent)
			switch errno {
			case 0:
				sent += int(r)
			case syscall.EAGAIN:
				return false // wait for writability, then resume
			case syscall.EINTR:
				continue
			case syscall.ENOSYS, syscall.EOPNOTSUPP:
				if sent == 0 {
					m.disabled = true
					fellBack = true // nothing left the socket yet
					return true
				}
				errs = len(dsts) - sent
				return true
			default:
				// Loss is an omission the protocol repairs; count the rest.
				errs = len(dsts) - sent
				return true
			}
		}
		return true
	})
	if fellBack {
		return false
	}
	if werr != nil {
		errs = len(dsts) - sent // raw-conn failure (e.g. closing socket)
	}
	if n.sock != nil {
		n.sock.sendDatagrams.Add(int64(sent))
		n.sock.sendBytes.Add(int64(sent * len(frame)))
		n.sock.sendErrors.Add(int64(errs))
	}
	return true
}

// burstSlot is one receive buffer: one byte of slack past maxDatagram
// distinguishes an exactly-full datagram from a kernel-truncated one, like
// the classic reader.
const burstSlot = maxDatagram + 1

// burstSlabs recycles the receivers' buffer sets (mmsgBurst slots, half a
// megabyte) across node lifetimes, so a process that constructs and stops
// members by the hundred — a test suite, the benchmark's set-up timing —
// does not grow its heap by a slab of garbage per member. A reader returns
// its slab when it exits; nothing else ever sees the bytes.
var burstSlabs = sync.Pool{New: func() any {
	slab := make([]byte, mmsgBurst*burstSlot)
	return &slab
}}

// mmsgReceiver drains the socket in recvmmsg bursts. Owned by the reader
// goroutine; no locking.
type mmsgReceiver struct {
	rc   syscall.RawConn
	slab *[]byte // backs bufs; back to burstSlabs on release
	bufs [][]byte
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrAny
	addr net.UDPAddr // scratch for from(); warnings only, never retained
}

// newMmsgReceiver returns nil when burst receive cannot be used; the
// reader then runs its classic ReadFromUDP loop.
func newMmsgReceiver(n *UDPNode) *mmsgReceiver {
	rc, err := n.conn.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgReceiver{
		rc:   rc,
		slab: burstSlabs.Get().(*[]byte),
		bufs: make([][]byte, mmsgBurst),
		hdrs: make([]mmsghdr, mmsgBurst),
		iovs: make([]syscall.Iovec, mmsgBurst),
		sas:  make([]syscall.RawSockaddrAny, mmsgBurst),
	}
	for i := range m.bufs {
		m.bufs[i] = (*m.slab)[i*burstSlot : (i+1)*burstSlot : (i+1)*burstSlot]
	}
	return m
}

// release hands the buffer set back for the next node's reader. The reader
// calls it on exit; the receiver must not be used afterwards.
func (m *mmsgReceiver) release() {
	burstSlabs.Put(m.slab)
	m.slab, m.bufs = nil, nil
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
	got := 0
	var sysErr error
	err := m.rc.Read(func(fd uintptr) bool {
		r, errno := recvmmsgRaw(fd, &m.hdrs[0], len(m.hdrs))
		switch errno {
		case 0:
			got = int(r)
		case syscall.EAGAIN, syscall.EINTR:
			return false // wait on the poller, then retry
		case syscall.ENOSYS, syscall.EOPNOTSUPP:
			sysErr = errMmsgUnsupported
		default:
			sysErr = errno
		}
		return true
	})
	if err != nil {
		return 0, err // raw-conn failure: the socket is closing
	}
	return got, sysErr
}

// packet returns slot i's received bytes, valid until the next recv.
func (m *mmsgReceiver) packet(i int) []byte {
	return m.bufs[i][:m.hdrs[i].len]
}

// from decodes slot i's source address into a reused scratch UDPAddr —
// for warnings only; callees must not retain it. The port byte swap
// assumes a little-endian host, which covers every supported linux
// target; a wrong port in a warning line is cosmetic anyway.
func (m *mmsgReceiver) from(i int) *net.UDPAddr {
	sa := &m.sas[i]
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		m.addr.IP = append(m.addr.IP[:0], sa4.Addr[:]...)
		m.addr.Port = int(sa4.Port>>8 | sa4.Port<<8)
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		m.addr.IP = append(m.addr.IP[:0], sa6.Addr[:]...)
		m.addr.Port = int(sa6.Port>>8 | sa6.Port<<8)
	default:
		m.addr = net.UDPAddr{}
	}
	return &m.addr
}
