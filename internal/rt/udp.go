package rt

import "net"

// UDPNode is one live single-group member on a real network: a Member
// hosting group 0 alone, whose frames are byte-identical to the pre-group
// [src:4][PDU] datagrams.
type UDPNode struct{ single }

// NewUDPNode binds the member's socket and prepares the protocol entity.
func NewUDPNode(cfg UDPConfig) (*UDPNode, error) {
	cfg.Groups, cfg.Shards = 1, 1
	m, err := NewMember(cfg)
	if err != nil {
		return nil, err
	}
	return &UDPNode{single{m}}, nil
}

// Start launches the reader, the round clock and the protocol loop.
func (n *UDPNode) Start() { n.m.Start() }

// Stop halts the member and closes its socket (see Member.Stop).
func (n *UDPNode) Stop() { n.m.Stop() }

// LocalAddr returns the bound UDP address (see Member.LocalAddr).
func (n *UDPNode) LocalAddr() *net.UDPAddr { return n.m.LocalAddr() }
