package repkv

import (
	"time"

	"nodefz/internal/cluster"
	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
	"nodefz/internal/vclock"
)

// Client is a minimal repkv client for the trial's control loop: one
// connection per node, INCR with at-least-once retry (the Seq token makes
// it exactly-once end to end), and local GETs for background read traffic.
// A retry walks the nodes round-robin, so a NAK'd or timed-out write finds
// the current leader wherever the view moved.
type Client struct {
	loop  *eventloop.Loop
	net   *simnet.Network
	n     int
	retry time.Duration

	mu         vclock.Mutex // bound to the loop's clock
	closed     bool
	conns      []*simnet.Conn
	acked      map[int]bool
	keyOf      map[int]string
	ackedByKey map[string]int
}

// NewClient dials every node from l. retry is the per-attempt timeout
// before a write is re-sent to the next node.
func NewClient(l *eventloop.Loop, net *simnet.Network, nodes int, retry time.Duration) *Client {
	c := &Client{
		loop:       l,
		net:        net,
		n:          nodes,
		retry:      retry,
		conns:      make([]*simnet.Conn, nodes),
		acked:      make(map[int]bool),
		keyOf:      make(map[int]string),
		ackedByKey: make(map[string]int),
	}
	c.mu.Bind(l.Clock())
	for i := 0; i < nodes; i++ {
		i := i
		net.Dial(l, cluster.Addr(i), func(conn *simnet.Conn, err error) {
			if err != nil {
				return
			}
			conn.OnData(func(data []byte) {
				if m, err := decodeMsg(data); err == nil {
					c.onMsg(m)
				}
			})
			c.mu.Lock()
			c.conns[i] = conn
			c.mu.Unlock()
		})
	}
	return c
}

// onMsg records write acks. It deliberately causes nothing: an ack-receipt
// unit with no outgoing events keeps the client out of the happens-before
// paths the REP bugs race on.
func (c *Client) onMsg(m msg) {
	if m.T != msgReply || !m.OK {
		return
	}
	c.mu.Lock()
	if !c.acked[m.Seq] {
		c.acked[m.Seq] = true
		c.ackedByKey[c.keyOf[m.Seq]]++
	}
	c.mu.Unlock()
}

// Incr sends INCR key with dedup token seq to node prefer first, then
// retries round-robin every retry interval until some node acks.
func (c *Client) Incr(key string, seq, prefer int) {
	c.mu.Lock()
	c.keyOf[seq] = key
	c.mu.Unlock()
	var attempt func(target int)
	attempt = func(target int) {
		c.mu.Lock()
		done := c.acked[seq] || c.closed
		conn := c.conns[target%c.n]
		c.mu.Unlock()
		if done {
			return
		}
		if conn != nil && !conn.Closed() {
			_ = conn.Send(appendMsg(nil, msg{T: msgReq, Seq: seq, Key: key}))
		}
		c.loop.SetTimeoutNamed("client-retry", c.retry, func() { attempt(target + 1) })
	}
	attempt(prefer)
}

// Get sends a local (non-quorum) read of key to node target — background
// traffic; the reply is parsed and dropped.
func (c *Client) Get(key string, target int) {
	c.mu.Lock()
	conn := c.conns[target%c.n]
	c.mu.Unlock()
	if conn == nil || conn.Closed() {
		return
	}
	_ = conn.Send(appendMsg(nil, msg{T: msgGet, Key: key}))
}

// Acked reports whether the write with token seq has been acked.
func (c *Client) Acked(seq int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked[seq]
}

// AckedFor counts acked INCRs against key — what the store owes the key.
func (c *Client) AckedFor(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackedByKey[key]
}

// Close closes every client connection and stops the retry chains of any
// still-unacked writes (trial teardown): after Close the client schedules
// nothing further, so the control loop's handle count can drain.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	conns := append([]*simnet.Conn(nil), c.conns...)
	c.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
}
