//go:build !linux || !(amd64 || arm64)

package rt

import (
	"net"

	"urcgc/internal/mid"
)

// Non-linux platforms have no sendmmsg/recvmmsg: both constructors return
// nil and the runtime stays on the classic one-syscall-per-datagram path.

type mmsgSender struct{}

func newMmsgSender(*UDPNode) *mmsgSender { return nil }

func (m *mmsgSender) send(*UDPNode, []mid.ProcID, []byte) bool { return false }

type mmsgReceiver struct{}

func newMmsgReceiver(*UDPNode) *mmsgReceiver { return nil }

func (m *mmsgReceiver) release()              {}
func (m *mmsgReceiver) recv() (int, error)    { return 0, nil }
func (m *mmsgReceiver) packet(int) []byte     { return nil }
func (m *mmsgReceiver) from(int) *net.UDPAddr { return nil }
