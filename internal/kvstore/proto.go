// Package kvstore is a Redis-like key/value service reached over simnet:
// the back-end database the paper's subjects race on (GHO's user store,
// KUE's Redis job states, MGS's MongoDB documents — §3.3.2 "races on
// system resources").
//
// The server applies each request atomically in a single loop callback; the
// nondeterminism lives in the wire (per-message latency) and in the
// client's connection pool: consecutive commands issued by one client are
// striped round-robin across pooled connections, so — exactly like
// concurrent updates from a JavaScript driver — they may be *processed* in
// either order even though they were *issued* in program order. That
// reordering window is what the KUE/GHO/MGS bugs depend on.
//
// Requests and responses travel in the binary format of internal/wire (see
// request and response below).
package kvstore

import (
	"errors"

	"nodefz/internal/wire"
)

// Supported operations.
const (
	OpGet    = "GET"
	OpSet    = "SET"
	OpSetNX  = "SETNX" // args: key, val, ttl-ms ("0" = no expiry)
	OpDel    = "DEL"
	OpIncr   = "INCR"
	OpAppend = "APPEND"
	OpExists = "EXISTS"
	OpHSet   = "HSET"
	OpHGet   = "HGET"
	OpPing   = "PING"
)

// request is one command, client -> server. On the wire: ID uvarint, Op
// string, Args count, then each arg as a string. Empty Args decode as nil.
type request struct {
	ID   uint64
	Op   string
	Args []string
}

// response is one reply, server -> client. On the wire: ID uvarint, Val
// string, OK bool, Err string.
type response struct {
	ID  uint64
	Val string
	OK  bool
	Err string
}

func appendRequest(b []byte, req request) []byte {
	b = wire.AppendUvarint(b, req.ID)
	b = wire.AppendString(b, req.Op)
	b = wire.AppendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = wire.AppendString(b, a)
	}
	return b
}

// decodeRequest decodes a request. On error the request holds the fields
// read before the malformed one, so a bad request is answered with its ID
// when the ID itself was readable.
func decodeRequest(data []byte) (request, error) {
	r := wire.NewReader(data)
	var req request
	req.ID = r.Uvarint()
	req.Op = r.String()
	if n := r.Count(); n > 0 {
		req.Args = make([]string, n)
		for i := range req.Args {
			req.Args[i] = r.String()
		}
	}
	return req, r.Done()
}

func appendResponse(b []byte, resp response) []byte {
	b = wire.AppendUvarint(b, resp.ID)
	b = wire.AppendString(b, resp.Val)
	b = wire.AppendBool(b, resp.OK)
	return wire.AppendString(b, resp.Err)
}

func decodeResponse(data []byte) (response, error) {
	r := wire.NewReader(data)
	var resp response
	resp.ID = r.Uvarint()
	resp.Val = r.String()
	resp.OK = r.Bool()
	resp.Err = r.String()
	return resp, r.Done()
}

// Reply is the client-visible outcome of a command.
type Reply struct {
	// Val is the value payload.
	Val string
	// OK is op-specific: key existed (GET/EXISTS/HGET), lock acquired
	// (SETNX), field was new (HSET), ...
	OK bool
	// Err is a transport or server error.
	Err error
}

// ErrClientClosed is reported for commands issued after Client.Close.
var ErrClientClosed = errors.New("kvstore: client closed")
