package kvstore

import (
	"strconv"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/oracle"
	"nodefz/internal/simnet"
)

// Server is the key/value store. Requests are applied atomically, one loop
// callback each, in network-arrival order — the store itself is always
// consistent; the races the paper studies are in the *clients'* assumptions
// about command ordering.
type Server struct {
	loop *eventloop.Loop
	ln   *simnet.Listener

	strings map[string]string
	hashes  map[string]map[string]string
	lists   map[string][]string
	expiry  map[string]time.Time

	workModel func(op string, args []string) time.Duration

	probe      *oracle.Tracker
	probeMatch func(key string) bool

	requests int
	buf      []byte // response encoding scratch; the server runs on one loop
}

// SetWorkModel installs a per-query service-time model: the reply to a
// command is sent after the returned duration, scheduled on the server's
// loop. This models queries of different cost (a large collection scan vs a
// point lookup), which is what makes "the last launched request may not be
// the last completed request" (§3.2.2) a realistic hazard. Nil (the
// default) means replies are immediate.
func (s *Server) SetWorkModel(fn func(op string, args []string) time.Duration) {
	s.workModel = fn
}

// SetProbe installs the concurrency oracle: each applied command whose key
// passes match (nil matches every key) is tagged as an oracle access on
// cell "kv:<key>" — hash-field commands on "kv:<key>:<field>", so writes
// to distinct fields of one hash do not conflict. Commands are applied on
// the server's loop inside the delivery unit of the request, so the access
// is attributed to (and ordered by) the client callback that issued it.
// Reads map to oracle.Read, SETNX/INCR to oracle.Atomic (they commute),
// everything else that mutates to oracle.Write.
func (s *Server) SetProbe(tr *oracle.Tracker, match func(key string) bool) {
	s.probe = tr
	s.probeMatch = match
}

// NewServer starts a store listening on addr.
func NewServer(loop *eventloop.Loop, net *simnet.Network, addr string) (*Server, error) {
	s := &Server{
		loop:    loop,
		strings: make(map[string]string),
		hashes:  make(map[string]map[string]string),
		lists:   make(map[string][]string),
		expiry:  make(map[string]time.Time),
	}
	ln, err := net.Listen(loop, addr, s.accept)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// Close stops accepting connections. Established connections keep working
// until their clients close them.
func (s *Server) Close() { s.ln.Close(nil) }

// Requests reports how many commands the server has processed.
func (s *Server) Requests() int { return s.requests }

func (s *Server) accept(c *simnet.Conn) {
	c.OnData(func(msg []byte) {
		req, err := decodeRequest(msg)
		if err != nil {
			s.reply(c, response{ID: req.ID, Err: "bad request: " + err.Error()})
			return
		}
		var delay time.Duration
		if s.workModel != nil {
			delay = s.workModel(req.Op, req.Args)
		}
		if delay <= 0 {
			s.reply(c, s.apply(req))
			return
		}
		s.loop.SetTimeoutNamed("db-work", delay, func() {
			s.reply(c, s.apply(req))
		})
	})
}

// reply encodes resp into s.buf and sends it; Send copies the message.
func (s *Server) reply(c *simnet.Conn, resp response) {
	s.buf = appendResponse(s.buf[:0], resp)
	_ = c.Send(s.buf)
}

// expired implements lazy TTL expiry (SETNX locks).
func (s *Server) expired(key string) bool {
	exp, ok := s.expiry[key]
	if !ok {
		return false
	}
	if s.loop.Clock().Now().Before(exp) {
		return false
	}
	delete(s.expiry, key)
	delete(s.strings, key)
	return true
}

// tag reports the command to the oracle, if one is installed and the key
// matches. Ops that touch no key (PING) and unknown ops are skipped.
func (s *Server) tag(req request) {
	if s.probe == nil || len(req.Args) == 0 {
		return
	}
	key := req.Args[0]
	if s.probeMatch != nil && !s.probeMatch(key) {
		return
	}
	var kind oracle.AccessKind
	switch req.Op {
	case OpGet, OpExists, OpHGet, OpHGetAll, OpHLen, OpLLen, OpLRange:
		kind = oracle.Read
	case OpSetNX, OpIncr:
		kind = oracle.Atomic
	case OpSet, OpDel, OpAppend, OpHSet, OpHDel, OpLPush, OpRPush, OpLPop:
		kind = oracle.Write
	default:
		return
	}
	cell := "kv:" + key
	switch req.Op {
	case OpHGet, OpHSet, OpHDel:
		if len(req.Args) > 1 {
			cell += ":" + req.Args[1]
		}
	}
	s.probe.Access(cell, kind)
}

func (s *Server) apply(req request) response {
	s.requests++
	s.tag(req)
	resp := response{ID: req.ID}
	arg := func(i int) string {
		if i < len(req.Args) {
			return req.Args[i]
		}
		return ""
	}
	switch req.Op {
	case OpPing:
		resp.Val, resp.OK = "PONG", true

	case OpGet:
		s.expired(arg(0))
		v, ok := s.strings[arg(0)]
		resp.Val, resp.OK = v, ok

	case OpSet:
		s.expired(arg(0))
		delete(s.expiry, arg(0))
		s.strings[arg(0)] = arg(1)
		resp.OK = true

	case OpSetNX:
		key := arg(0)
		s.expired(key)
		if _, exists := s.strings[key]; exists {
			resp.OK = false
			break
		}
		s.strings[key] = arg(1)
		if ms, err := strconv.Atoi(arg(2)); err == nil && ms > 0 {
			s.expiry[key] = s.loop.Clock().Now().Add(time.Duration(ms) * time.Millisecond)
		}
		resp.OK = true

	case OpDel:
		_, had := s.strings[arg(0)]
		_, hadHash := s.hashes[arg(0)]
		delete(s.strings, arg(0))
		delete(s.hashes, arg(0))
		delete(s.expiry, arg(0))
		resp.OK = had || hadHash

	case OpIncr:
		s.expired(arg(0))
		n, _ := strconv.Atoi(s.strings[arg(0)])
		n++
		s.strings[arg(0)] = strconv.Itoa(n)
		resp.Val, resp.OK = strconv.Itoa(n), true

	case OpAppend:
		s.expired(arg(0))
		s.strings[arg(0)] += arg(1)
		resp.Val, resp.OK = s.strings[arg(0)], true

	case OpExists:
		s.expired(arg(0))
		_, inStrings := s.strings[arg(0)]
		_, inHashes := s.hashes[arg(0)]
		resp.OK = inStrings || inHashes

	case OpHSet:
		h := s.hashes[arg(0)]
		if h == nil {
			h = make(map[string]string)
			s.hashes[arg(0)] = h
		}
		_, existed := h[arg(1)]
		h[arg(1)] = arg(2)
		resp.OK = !existed

	case OpHGet:
		v, ok := s.hashes[arg(0)][arg(1)]
		resp.Val, resp.OK = v, ok

	case OpHDel:
		h := s.hashes[arg(0)]
		_, had := h[arg(1)]
		delete(h, arg(1))
		resp.OK = had

	case OpHGetAll:
		resp.Val = string(encodeJSON(s.hashes[arg(0)]))
		resp.OK = true

	case OpHLen:
		resp.Val = strconv.Itoa(len(s.hashes[arg(0)]))
		resp.OK = true

	case OpLPush:
		s.lists[arg(0)] = append([]string{arg(1)}, s.lists[arg(0)]...)
		resp.Val, resp.OK = strconv.Itoa(len(s.lists[arg(0)])), true

	case OpRPush:
		s.lists[arg(0)] = append(s.lists[arg(0)], arg(1))
		resp.Val, resp.OK = strconv.Itoa(len(s.lists[arg(0)])), true

	case OpLPop:
		list := s.lists[arg(0)]
		if len(list) == 0 {
			resp.OK = false
			break
		}
		resp.Val, resp.OK = list[0], true
		if len(list) == 1 {
			delete(s.lists, arg(0))
		} else {
			s.lists[arg(0)] = list[1:]
		}

	case OpLLen:
		resp.Val, resp.OK = strconv.Itoa(len(s.lists[arg(0)])), true

	case OpLRange:
		list := s.lists[arg(0)]
		start, _ := strconv.Atoi(arg(1))
		stop, _ := strconv.Atoi(arg(2))
		if start < 0 {
			start += len(list)
		}
		if stop < 0 {
			stop += len(list)
		}
		if start < 0 {
			start = 0
		}
		if stop >= len(list) {
			stop = len(list) - 1
		}
		if start > stop || len(list) == 0 {
			resp.Val, resp.OK = "[]", true
			break
		}
		resp.Val, resp.OK = string(encodeJSON(list[start:stop+1])), true

	default:
		resp.Err = "unknown op " + req.Op
	}
	return resp
}
