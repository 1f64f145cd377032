// Package simnet is an in-process message network: the substrate standing
// in for the TCP traffic of the paper's subjects. It preserves exactly the
// ordering semantics the bug study depends on (§4.2.1): traffic on a
// particular connection is well-ordered (FIFO per direction), while traffic
// across connections is not — each message is delayed by an independent
// random latency, so arrival order across connections is nondeterministic.
//
// Deliveries surface on the destination loop as poll events ("net-accept",
// "net-connect", "net-read", "net-close"), which is where the Node.fz
// scheduler shuffles and defers them.
package simnet

import (
	"errors"
	"math/rand"
	"strconv"

	"nodefz/internal/frand"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// Event kinds posted by the network.
const (
	KindAccept  = "net-accept"
	KindConnect = "net-connect"
	KindRead    = "net-read"
	KindClose   = "net-close"
)

// ErrConnectionRefused is reported to Dial callbacks when no listener is
// bound to the address.
var ErrConnectionRefused = errors.New("simnet: connection refused")

// ErrAddrInUse is returned by Listen when the address is taken.
var ErrAddrInUse = errors.New("simnet: address already in use")

// ErrClosed is reported when sending on a closed connection.
var ErrClosed = errors.New("simnet: connection closed")

// Config parameterizes a Network.
type Config struct {
	// Seed drives the latency sampler; a fixed seed replays latencies.
	Seed int64
	// MinLatency and MaxLatency bound the uniform per-message latency.
	// Defaults: 50µs and 500µs.
	MinLatency, MaxLatency time.Duration
	// Clock is the delivery engine's time source (latencies elapse on it).
	// Nil means wall time; pass the owning loop's clock to run the network
	// in simulated time.
	Clock vclock.Clock
	// Probe is the concurrency oracle. When set, Dial/Send/Close capture
	// the calling unit so each delivery happens-after its sender. Nil when
	// the oracle is off.
	Probe *oracle.Tracker
}

// Network is a simulated network segment. All loops sharing the Network can
// reach each other's listeners by address.
type Network struct {
	cfg    Config
	engine *engine

	mu        vclock.Mutex // bound to cfg.Clock
	rng       *rand.Rand
	listeners map[string]*Listener
	connSeq   uint64
	// pairs lists the endpoint pairs of every connection number the network
	// has used, in number order (linked by next, ending at lastPair): the
	// pair of connection k serves connection k again in every later trial,
	// names and bound callbacks included. reuse is the pair the next Dial
	// takes; nil means the next Dial builds a new one.
	pairs, lastPair, reuse *connPair
	// parts maps a loop to its partition group. Loops in different groups
	// cannot exchange traffic; an unmapped loop (a client, a control loop)
	// reaches everyone. Nil when the network is healed.
	parts map[*eventloop.Loop]int
}

// New creates a network.
func New(cfg Config) *Network {
	if cfg.MinLatency <= 0 {
		cfg.MinLatency = 50 * time.Microsecond
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = 10 * cfg.MinLatency
	}
	n := &Network{
		cfg:       cfg,
		engine:    newEngine(cfg.Clock),
		rng:       frand.New(cfg.Seed),
		listeners: make(map[string]*Listener),
	}
	n.mu.Bind(cfg.Clock)
	return n
}

// Close shuts the network down; undelivered messages are dropped. Close
// joins the delivery engine, so when it returns nothing of the network is
// left on the clock. Call it from outside any loop callback.
func (n *Network) Close() { n.engine.close() }

// Reset re-arms a Closed network for a new trial as if freshly built with
// New(cfg): the latency sampler reseeds in place (bit-identical to a fresh
// rand source), listeners and connection numbering rewind, and the delivery
// engine respawns. cfg.Clock must be the clock the network was built with —
// the engine is a participant of it. The previous trial's connections are
// retired for reuse: connection k of the new trial is built on the
// endpoints of connection k of earlier ones, so no Conn of a trial may be
// used after the network is Reset.
func (n *Network) Reset(cfg Config) {
	if cfg.MinLatency <= 0 {
		cfg.MinLatency = 50 * time.Microsecond
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = 10 * cfg.MinLatency
	}
	n.mu.Lock()
	n.cfg.Seed = cfg.Seed
	n.cfg.MinLatency = cfg.MinLatency
	n.cfg.MaxLatency = cfg.MaxLatency
	n.cfg.Probe = cfg.Probe
	n.rng.Seed(cfg.Seed)
	clear(n.listeners)
	n.connSeq = 0
	n.reuse = n.pairs
	n.parts = nil
	n.mu.Unlock()
	n.engine.restart()
}

// Partition splits the network: loops in different groups cannot exchange
// traffic until Heal. Messages already in flight across a cut are dropped at
// delivery time (the wire went dead under them), dials across a cut are
// refused, and traffic within a group — or to/from a loop in no group —
// flows normally. Calling Partition again replaces the previous layout.
func (n *Network) Partition(groups ...[]*eventloop.Loop) {
	n.mu.Lock()
	n.parts = make(map[*eventloop.Loop]int)
	for g, loops := range groups {
		for _, l := range loops {
			n.parts[l] = g
		}
	}
	n.mu.Unlock()
}

// Heal removes the partition: every link is restored. Messages dropped while
// the partition stood stay dropped — as on a real network, the transport
// does not retransmit across a heal; protocols must.
func (n *Network) Heal() {
	n.mu.Lock()
	n.parts = nil
	n.mu.Unlock()
}

// linkUp reports whether a and b can currently exchange traffic. Caller must
// NOT hold n.mu.
func (n *Network) linkUp(a, b *eventloop.Loop) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.parts == nil {
		return true
	}
	ga, oka := n.parts[a]
	gb, okb := n.parts[b]
	return !oka || !okb || ga == gb
}

// probeRef captures the unit currently executing on the calling loop, for
// attachment to a delivery scheduled now. Zero when the oracle is off.
func (n *Network) probeRef() oracle.Ref { return n.cfg.Probe.Current() }

func (n *Network) latency() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	span := int64(n.cfg.MaxLatency - n.cfg.MinLatency)
	if span <= 0 {
		return n.cfg.MinLatency
	}
	return n.cfg.MinLatency + time.Duration(n.rng.Int63n(span))
}

// Listener accepts connections on an address.
type Listener struct {
	net    *Network
	loop   *eventloop.Loop
	addr   string
	src    *eventloop.Source
	onConn func(*Conn)
	closed bool
}

// Listen binds a listener to addr on loop. onConn runs on loop for each
// accepted connection.
func (n *Network) Listen(loop *eventloop.Loop, addr string, onConn func(*Conn)) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, ErrAddrInUse
	}
	ln := &Listener{
		net:    n,
		loop:   loop,
		addr:   addr,
		src:    loop.NewSource("listen:" + addr),
		onConn: onConn,
	}
	n.listeners[addr] = ln
	return ln, nil
}

// Addr returns the bound address.
func (ln *Listener) Addr() string { return ln.addr }

// Close unbinds the listener; its close callback (may be nil) runs in the
// loop's close phase. In-flight connection attempts are refused.
func (ln *Listener) Close(cb func()) {
	ln.net.mu.Lock()
	if ln.closed {
		ln.net.mu.Unlock()
		return
	}
	ln.closed = true
	delete(ln.net.listeners, ln.addr)
	ln.net.mu.Unlock()
	ln.src.Close(cb)
}

// Conn is one endpoint of an established (or in-progress) connection.
// Handlers run on the endpoint's loop. Send and Close are safe from any
// goroutine; handler registration must happen on the owning loop before
// traffic arrives (typically inside the accept/connect callback).
type Conn struct {
	net  *Network
	loop *eventloop.Loop
	src  *eventloop.Source
	name string
	// recv and fin are the loop callbacks of this endpoint's read and
	// peer-close events, bound once so that no delivery allocates one.
	recv func([]byte)
	fin  func()

	mu            vclock.Mutex // bound to the network's clock
	peer          *Conn
	onData        func([]byte)
	onClose       func()
	closed        bool
	sendNotBefore int64 // due time of this direction's latest flight
}

// connPair holds the two endpoints of one connection number. A network
// keeps its pairs across trials (see Network.Reset), so an arena trial
// builds no endpoint.
type connPair struct {
	client, server Conn
	next           *connPair
}

// nextPair numbers a new connection and returns its endpoint pair: the
// pair that served the number in an earlier trial, or a new one.
func (n *Network) nextPair() *connPair {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.connSeq++
	if p := n.reuse; p != nil {
		n.reuse = p.next
		return p
	}
	p := new(connPair)
	// Both names share one string: "conn3:clientconn3:server".
	num := strconv.FormatUint(n.connSeq, 10)
	names := "conn" + num + ":client" + "conn" + num + ":server"
	p.client.name, p.server.name = names[:len(names)/2], names[len(names)/2:]
	p.client.net, p.server.net = n, n
	p.client.mu.Bind(n.cfg.Clock)
	p.server.mu.Bind(n.cfg.Clock)
	if n.lastPair == nil {
		n.pairs = p
	} else {
		n.lastPair.next = p
	}
	n.lastPair = p
	return p
}

// open readies endpoint c of a connection on loop for a trial: the fields a
// trial sets start from zero, and the loop callbacks are bound on the
// endpoint's first use.
func (c *Conn) open(loop *eventloop.Loop) *Conn {
	c.loop, c.src = loop, loop.NewSource(c.name)
	c.peer, c.onData, c.onClose, c.closed, c.sendNotBefore = nil, nil, nil, false, 0
	if c.recv == nil {
		c.recv, c.fin = c.receive, c.closedByPeer
	}
	return c
}

// Name identifies the endpoint in schedules, e.g. "conn3:client".
func (c *Conn) Name() string { return c.name }

// OnData registers the message handler.
func (c *Conn) OnData(fn func([]byte)) {
	c.mu.Lock()
	c.onData = fn
	c.mu.Unlock()
}

// OnClose registers the peer-closed/self-closed handler.
func (c *Conn) OnClose(fn func()) {
	c.mu.Lock()
	c.onClose = fn
	c.mu.Unlock()
}

// Closed reports whether the endpoint is closed.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Dial opens a connection to addr. onConnect runs on loop once the
// connection is established (with the client endpoint) or refused (with a
// nil Conn and an error). The server's accept callback always runs before
// the client's connect callback, as with TCP's handshake.
func (n *Network) Dial(loop *eventloop.Loop, addr string, onConnect func(*Conn, error)) {
	dialRef := n.probeRef()
	pair := n.nextPair()
	client := pair.client.open(loop)

	n.engine.schedule(n.latency(), 0, flight{op: opCall, fn: func(oracle.Ref) {
		n.mu.Lock()
		ln := n.listeners[addr]
		refused := ln == nil || ln.closed
		n.mu.Unlock()
		// A dial across a partition cut is refused: the SYN cannot reach the
		// listener's side of the network.
		if !refused && !n.linkUp(loop, ln.loop) {
			refused = true
		}
		if refused {
			client.src.PostRef(KindConnect, client.name, dialRef, func() {
				onConnect(nil, ErrConnectionRefused)
				client.src.Close(nil)
			})
			return
		}
		server := pair.server.open(ln.loop)
		client.mu.Lock()
		client.peer = server
		client.mu.Unlock()
		server.mu.Lock()
		server.peer = client
		server.mu.Unlock()

		// Accept on the server loop; then, after another latency sample,
		// confirm to the client. The ack travels the server->client
		// direction so it is FIFO with everything else the server sends —
		// in particular, an immediate server-side Close cannot overtake it.
		ln.src.PostRef(KindAccept, server.name, dialRef, func() {
			// The ack goes out before the application sees the connection,
			// like a kernel-level SYN-ACK: whatever the accept callback does
			// (send, even close) is FIFO *behind* it.
			server.scheduleOut(flight{op: opCall, fn: func(ref oracle.Ref) {
				client.src.PostRef(KindConnect, client.name, ref, func() {
					onConnect(client, nil)
				})
			}})
			ln.onConn(server)
		})
	}})
}

// Send transmits data to the peer; the peer's OnData handler runs on the
// peer's loop after this connection direction's FIFO-preserving latency.
// Sending on a closed connection returns ErrClosed; data sent while the
// peer is closing may be silently lost, as on a real socket.
func (c *Conn) Send(data []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	peer := c.peer
	c.mu.Unlock()
	if peer == nil {
		return ErrClosed
	}
	// OnData handlers may keep the slice, so every message gets its own.
	msg := make([]byte, len(data))
	copy(msg, data)
	c.scheduleOut(flight{op: opData, payload: msg})
	return nil
}

// scheduleOut queues f on this endpoint's outgoing direction: a fresh
// latency sample, but never delivered before anything already in flight on
// the same direction (per-connection FIFO, §4.2.1). The sending unit is
// captured here, on the calling loop, so the eventual delivery
// happens-after its sender.
func (c *Conn) scheduleOut(f flight) {
	f.ref = c.net.probeRef()
	c.mu.Lock()
	notBefore := c.sendNotBefore
	f.from, f.to = c, c.peer
	c.mu.Unlock()
	// Partition checks at both ends of the flight: a message sent into a
	// dead link is dropped at the first hop (but still consumes a latency
	// sample, keeping the decision stream aligned with the healed schedule),
	// and a message in flight when the cut lands is lost on the dead wire
	// (arrive). The transport never retransmits across a heal; protocols
	// must.
	delay := c.net.latency()
	if f.to != nil && !c.net.linkUp(c.loop, f.to.loop) {
		return
	}
	due := c.net.engine.schedule(delay, notBefore, f)
	c.mu.Lock()
	if due > c.sendNotBefore {
		c.sendNotBefore = due
	}
	c.mu.Unlock()
}

// arrive lands a due flight at its far end.
func (f *flight) arrive() {
	if f.from != nil && f.to != nil && !f.from.net.linkUp(f.from.loop, f.to.loop) {
		return
	}
	switch f.op {
	case opCall:
		f.fn(f.ref)
	case opData:
		if f.to.Closed() {
			// RST: the remote endpoint is gone and its FIN never reached us —
			// it crashed inside a partition, say. As with TCP, the next
			// segment to arrive at a dead endpoint resets the sender's side
			// of the connection, which is how a protocol's keepalive traffic
			// discovers a half-open connection and redials.
			f.from.peerClosed(f.ref)
			return
		}
		f.to.src.PostData(KindRead, f.to.name, f.ref, f.to.recv, f.payload)
	case opFIN:
		f.to.peerClosed(f.ref)
	}
}

// receive runs a delivered message on the endpoint's loop (bound as recv).
func (c *Conn) receive(msg []byte) {
	c.mu.Lock()
	fn := c.onData
	closed := c.closed
	c.mu.Unlock()
	if fn != nil && !closed {
		fn(msg)
	}
}

// Close tears the connection down. The local OnClose handler runs in the
// loop's close phase; the peer's OnClose handler runs on the peer loop
// after the in-flight data has drained (FIFO with Send). Closing twice is a
// no-op.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	peer := c.peer
	onClose := c.onClose
	c.mu.Unlock()

	if peer != nil {
		c.scheduleOut(flight{op: opFIN})
	}
	c.src.Close(onClose)
}

// peerClosed posts the remote side's going away to the endpoint's loop.
// The closed flag and the OnClose handler are read inside the posted
// callback (closedByPeer), not here: data events already queued on the
// loop must still reach their handler first (per-direction FIFO), and
// handlers registered between the wire-level close and its loop-level
// processing must still be honoured.
func (c *Conn) peerClosed(ref oracle.Ref) {
	c.src.PostRef(KindClose, c.name, ref, c.fin)
}

// closedByPeer closes the endpoint on its loop once the peer has gone
// (bound as fin).
func (c *Conn) closedByPeer() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	onClose := c.onClose
	c.mu.Unlock()
	if onClose != nil {
		onClose()
	}
	c.src.Close(nil)
}
