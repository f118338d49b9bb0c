// Package groups implements the client-server group structure of Section 3:
// a set of server processes runs the urcgc protocol among themselves, while
// external clients submit requests to any server and collect replies. The
// paper notes the algorithm "may apply to client server groups, through a
// proper management of the reply messages" — this package is that
// management: a request is injected into the servers' causal order exactly
// once, every server processes it (uniform atomicity makes the service
// state machine-replicated), and the replies are gathered under an
// application voting rule (the v of the t.data tuple, unused inside urcgc
// itself).
package groups

import (
	"fmt"

	"urcgc/internal/causal"
	"urcgc/internal/core"
	"urcgc/internal/mid"
)

// Request is a client call: opaque input, a client-chosen ID for matching
// replies, and the identity of the server contacted (the "agent").
type Request struct {
	Client uint32
	CallID uint32
	Input  []byte
}

// Reply is one server's answer to a processed request.
type Reply struct {
	Server mid.ProcID
	Client uint32
	CallID uint32
	Output []byte
}

// Handler is the replicated service: deterministic, applied at every server
// in the same causal order, so every server computes the same outputs.
type Handler func(server mid.ProcID, req Request) []byte

// Voting decides when a call is complete given the replies gathered so far
// (the v function of the paper's transport tuple). Return true to finish.
type Voting func(replies []Reply) bool

// MajorityVote completes a call once more than half the servers replied and
// agree; it is the classic voting rule for replicated services.
func MajorityVote(n int) Voting {
	return func(replies []Reply) bool {
		if len(replies) <= n/2 {
			return false
		}
		counts := map[string]int{}
		for _, r := range replies {
			counts[string(r.Output)]++
			if counts[string(r.Output)] > n/2 {
				return true
			}
		}
		return false
	}
}

// FirstReply completes a call on the first reply (the agent's own).
func FirstReply() Voting {
	return func(replies []Reply) bool { return len(replies) > 0 }
}

// Service runs a replicated service on a simulated urcgc server group.
type Service struct {
	C       *core.Cluster
	handler Handler

	calls   map[callKey]*call
	replies []Reply
	applied []int // per server, requests applied (for tests)
}

type callKey struct {
	client, callID uint32
}

type call struct {
	req     Request
	voting  Voting
	replies []Reply
	done    bool
	output  []byte
}

// NewService wraps a cluster of servers with a deterministic handler. The
// cluster must be a plain peer group (every member a server).
func NewService(c *core.Cluster, h Handler) (*Service, error) {
	if h == nil {
		return nil, fmt.Errorf("groups: nil handler")
	}
	s := &Service{
		C:       c,
		handler: h,
		calls:   map[callKey]*call{},
		applied: make([]int, c.N()),
	}
	return s, nil
}

// encodeReq packs a request into a urcgc payload: client(4) callID(4) input.
func encodeReq(r Request) []byte {
	buf := make([]byte, 8+len(r.Input))
	buf[0] = byte(r.Client >> 24)
	buf[1] = byte(r.Client >> 16)
	buf[2] = byte(r.Client >> 8)
	buf[3] = byte(r.Client)
	buf[4] = byte(r.CallID >> 24)
	buf[5] = byte(r.CallID >> 16)
	buf[6] = byte(r.CallID >> 8)
	buf[7] = byte(r.CallID)
	copy(buf[8:], r.Input)
	return buf
}

func decodeReq(b []byte) (Request, error) {
	if len(b) < 8 {
		return Request{}, fmt.Errorf("groups: short request payload")
	}
	return Request{
		Client: uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]),
		CallID: uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		Input:  append([]byte(nil), b[8:]...),
	}, nil
}

// Call submits a request through the given agent server. The request enters
// the servers' causal order; as servers process it (OnProcessed must be
// wired, see Bind), each produces a Reply, and the call completes when the
// voting rule is satisfied. Returns the message ID carrying the request.
func (s *Service) Call(agent mid.ProcID, req Request, v Voting) (mid.MID, error) {
	if v == nil {
		v = FirstReply()
	}
	key := callKey{req.Client, req.CallID}
	if _, dup := s.calls[key]; dup {
		return mid.MID{}, fmt.Errorf("groups: duplicate call %d/%d", req.Client, req.CallID)
	}
	id, err := s.C.Submit(agent, encodeReq(req), nil)
	if err != nil {
		return mid.MID{}, err
	}
	s.calls[key] = &call{req: req, voting: v}
	return id, nil
}

// Bind installs the processing hook on every server of the cluster. Must be
// called before the cluster runs. It composes with any hooks the harness
// already installed via the cluster's callbacks — Bind uses the cluster's
// Log growth, polled from OnRound, to stay composable.
//
// Wire it as: opts.OnRound = service.OnRound(opts.OnRound).
func (s *Service) OnRound(inner func(int)) func(int) {
	return func(round int) {
		if inner != nil {
			inner(round)
		}
		for i := 0; i < s.C.N(); i++ {
			server := mid.ProcID(i)
			log := s.C.Log[i]
			for ; s.applied[i] < len(log); s.applied[i]++ {
				s.apply(server, log[s.applied[i]])
			}
		}
	}
}

func (s *Service) apply(server mid.ProcID, id mid.MID) {
	msg := s.lookupPayload(server, id)
	if msg == nil {
		return
	}
	req, err := decodeReq(msg.Payload)
	if err != nil {
		return
	}
	out := s.handler(server, req)
	rep := Reply{Server: server, Client: req.Client, CallID: req.CallID, Output: out}
	s.replies = append(s.replies, rep)
	if c, ok := s.calls[callKey{req.Client, req.CallID}]; ok && !c.done {
		c.replies = append(c.replies, rep)
		if c.voting(c.replies) {
			c.done = true
			c.output = out
		}
	}
}

// lookupPayload fetches the processed message from the server's history.
// Stability may already have purged it; in that case the reply from this
// server is skipped (enough servers reply before stability catches up).
func (s *Service) lookupPayload(server mid.ProcID, id mid.MID) *causal.Message {
	msg, _ := s.C.Proc(server).History().Get(id.Proc, id.Seq)
	return msg
}

// Done reports whether a call completed and, if so, its voted output.
func (s *Service) Done(client, callID uint32) ([]byte, bool) {
	c, ok := s.calls[callKey{client, callID}]
	if !ok || !c.done {
		return nil, false
	}
	return c.output, true
}

// Replies returns all replies a call has gathered so far.
func (s *Service) Replies(client, callID uint32) []Reply {
	c, ok := s.calls[callKey{client, callID}]
	if !ok {
		return nil
	}
	return append([]Reply(nil), c.replies...)
}
