//go:build !linux || !(amd64 || arm64)

package rt

import (
	"net"
	"net/netip"

	"urcgc/internal/mid"
)

// Non-linux platforms have no sendmmsg/recvmmsg: both constructors return
// nil and the runtime stays on the classic one-syscall-per-datagram path,
// which copies a bundle into one buffer.

// burstSender is unavailable off linux/amd64 and linux/arm64.
type burstSender struct{ disabled bool }

func newBurstSender(*net.UDPConn, []*net.UDPAddr) *burstSender { return nil }

func (m *burstSender) send([]mid.ProcID, [][]*sharedBuf) (sent, errs int, ok bool) {
	return 0, 0, false
}

type mmsgReceiver struct{}

func newMmsgReceiver(*net.UDPConn) *mmsgReceiver { return nil }

func (m *mmsgReceiver) release()                {}
func (m *mmsgReceiver) recv() (int, error)      { return 0, nil }
func (m *mmsgReceiver) packet(int) []byte       { return nil }
func (m *mmsgReceiver) from(int) netip.AddrPort { return netip.AddrPort{} }
