package kvstore

import (
	"errors"
	"strconv"

	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
)

// Client is an asynchronous store client with a connection pool.
//
// Commands are striped round-robin across the pool. Replies on one
// connection are FIFO, but two commands issued back-to-back usually travel
// on different connections and can be *processed by the server in either
// order* — the same semantics as a JavaScript database driver with a
// connection pool, and the mechanism behind the KUE, GHO and MGS races.
// PoolSize 1 restores strict issue-order processing.
type Client struct {
	loop *eventloop.Loop

	conns   []*simnet.Conn
	next    int
	pending map[uint64]func(Reply)
	seq     uint64
	closed  bool
	buf     []byte // request encoding scratch; the client runs on its loop
}

// NewClient dials poolSize connections to addr and invokes ready on loop
// once all are established (or once the first dial fails, with the error).
func NewClient(loop *eventloop.Loop, net *simnet.Network, addr string, poolSize int, ready func(*Client, error)) {
	if poolSize < 1 {
		poolSize = 1
	}
	c := &Client{
		loop:    loop,
		pending: make(map[uint64]func(Reply)),
	}
	remaining := poolSize
	failed := false
	for i := 0; i < poolSize; i++ {
		net.Dial(loop, addr, func(conn *simnet.Conn, err error) {
			if failed {
				if conn != nil {
					conn.Close()
				}
				return
			}
			if err != nil {
				failed = true
				ready(nil, err)
				return
			}
			conn.OnData(c.onData)
			conn.OnClose(func() {})
			c.conns = append(c.conns, conn)
			remaining--
			if remaining == 0 {
				ready(c, nil)
			}
		})
	}
}

func (c *Client) onData(msg []byte) {
	resp, err := decodeResponse(msg)
	if err != nil {
		return
	}
	cb, ok := c.pending[resp.ID]
	if !ok {
		return
	}
	delete(c.pending, resp.ID)
	reply := Reply{Val: resp.Val, OK: resp.OK}
	if resp.Err != "" {
		reply.Err = errors.New(resp.Err)
	}
	cb(reply)
}

// Close tears down the pool. Outstanding commands never complete, like
// in-flight queries on a dropped database connection.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, conn := range c.conns {
		conn.Close()
	}
	c.pending = make(map[uint64]func(Reply))
}

// PendingCount reports commands awaiting replies.
func (c *Client) PendingCount() int { return len(c.pending) }

// Do issues op with args; cb runs on the client's loop with the reply. Must
// be called from the loop.
func (c *Client) Do(op string, args []string, cb func(Reply)) {
	if cb == nil {
		cb = func(Reply) {}
	}
	if c.closed || len(c.conns) == 0 {
		// Report asynchronously, as a driver would.
		c.loop.NextTickNamed("kv-err", func() { cb(Reply{Err: ErrClientClosed}) })
		return
	}
	c.seq++
	id := c.seq
	c.pending[id] = cb
	conn := c.conns[c.next%len(c.conns)]
	c.next++
	c.buf = appendRequest(c.buf[:0], request{ID: id, Op: op, Args: args})
	if err := conn.Send(c.buf); err != nil {
		delete(c.pending, id)
		c.loop.NextTickNamed("kv-err", func() { cb(Reply{Err: err}) })
	}
}

// Get fetches key. ok is false when the key is absent.
func (c *Client) Get(key string, cb func(val string, ok bool, err error)) {
	c.Do(OpGet, []string{key}, func(r Reply) {
		if cb != nil {
			cb(r.Val, r.OK, r.Err)
		}
	})
}

// Set stores key=val.
func (c *Client) Set(key, val string, cb func(error)) {
	c.Do(OpSet, []string{key, val}, func(r Reply) {
		if cb != nil {
			cb(r.Err)
		}
	})
}

// SetNX stores key=val only if absent; ttl of 0 means no expiry. acquired
// reports whether the write happened — the Redis locking idiom KUE uses.
func (c *Client) SetNX(key, val string, ttlMillis int, cb func(acquired bool, err error)) {
	c.Do(OpSetNX, []string{key, val, strconv.Itoa(ttlMillis)}, func(r Reply) {
		if cb != nil {
			cb(r.OK, r.Err)
		}
	})
}

// Del removes key.
func (c *Client) Del(key string, cb func(error)) {
	c.Do(OpDel, []string{key}, func(r Reply) {
		if cb != nil {
			cb(r.Err)
		}
	})
}

// Incr atomically increments the integer at key and returns the new value.
func (c *Client) Incr(key string, cb func(n int, err error)) {
	c.Do(OpIncr, []string{key}, func(r Reply) {
		if cb == nil {
			return
		}
		n, _ := strconv.Atoi(r.Val)
		cb(n, r.Err)
	})
}

// Exists reports whether key is present.
func (c *Client) Exists(key string, cb func(bool, error)) {
	c.Do(OpExists, []string{key}, func(r Reply) {
		if cb != nil {
			cb(r.OK, r.Err)
		}
	})
}

// HSet stores field=val in the hash at key.
func (c *Client) HSet(key, field, val string, cb func(error)) {
	c.Do(OpHSet, []string{key, field, val}, func(r Reply) {
		if cb != nil {
			cb(r.Err)
		}
	})
}

// HGet fetches a hash field.
func (c *Client) HGet(key, field string, cb func(val string, ok bool, err error)) {
	c.Do(OpHGet, []string{key, field}, func(r Reply) {
		if cb != nil {
			cb(r.Val, r.OK, r.Err)
		}
	})
}

// HGetAll fetches the whole hash at key.
func (c *Client) HGetAll(key string, cb func(map[string]string, error)) {
	c.Do(OpHGetAll, []string{key}, func(r Reply) {
		if cb == nil {
			return
		}
		if r.Err != nil {
			cb(nil, r.Err)
			return
		}
		m, err := DecodeMap(r.Val)
		cb(m, err)
	})
}

// HDel removes a hash field.
func (c *Client) HDel(key, field string, cb func(error)) {
	c.Do(OpHDel, []string{key, field}, func(r Reply) {
		if cb != nil {
			cb(r.Err)
		}
	})
}

// LPush prepends val to the list at key and reports the new length.
func (c *Client) LPush(key, val string, cb func(n int, err error)) {
	c.listPush(OpLPush, key, val, cb)
}

// RPush appends val to the list at key and reports the new length.
func (c *Client) RPush(key, val string, cb func(n int, err error)) {
	c.listPush(OpRPush, key, val, cb)
}

func (c *Client) listPush(op, key, val string, cb func(int, error)) {
	c.Do(op, []string{key, val}, func(r Reply) {
		if cb == nil {
			return
		}
		n, _ := strconv.Atoi(r.Val)
		cb(n, r.Err)
	})
}

// LPop removes and returns the head of the list at key; ok is false when
// the list is empty.
func (c *Client) LPop(key string, cb func(val string, ok bool, err error)) {
	c.Do(OpLPop, []string{key}, func(r Reply) {
		if cb != nil {
			cb(r.Val, r.OK, r.Err)
		}
	})
}

// LLen reports the list length at key.
func (c *Client) LLen(key string, cb func(int, error)) {
	c.Do(OpLLen, []string{key}, func(r Reply) {
		if cb == nil {
			return
		}
		n, _ := strconv.Atoi(r.Val)
		cb(n, r.Err)
	})
}

// LRange fetches list elements in [start, stop] (inclusive; negative
// indices count from the end, à la Redis).
func (c *Client) LRange(key string, start, stop int, cb func([]string, error)) {
	c.Do(OpLRange, []string{key, strconv.Itoa(start), strconv.Itoa(stop)}, func(r Reply) {
		if cb == nil {
			return
		}
		if r.Err != nil {
			cb(nil, r.Err)
			return
		}
		list, err := DecodeList(r.Val)
		cb(list, err)
	})
}

// HLen reports the number of fields in the hash at key.
func (c *Client) HLen(key string, cb func(int, error)) {
	c.Do(OpHLen, []string{key}, func(r Reply) {
		if cb == nil {
			return
		}
		n, _ := strconv.Atoi(r.Val)
		cb(n, r.Err)
	})
}
