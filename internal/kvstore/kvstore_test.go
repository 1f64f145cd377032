package kvstore

import (
	"testing"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
)

// env runs fn on a loop with a store server at "db" and a connected client,
// then lets the loop drain.
func env(t *testing.T, poolSize int, fn func(l *eventloop.Loop, c *Client, shutdown func())) {
	t.Helper()
	l := eventloop.New(eventloop.Options{})
	net := simnet.New(simnet.Config{Seed: 42, MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond})
	defer net.Close()
	srv, err := NewServer(l, net, "db")
	if err != nil {
		t.Fatal(err)
	}
	NewClient(l, net, "db", poolSize, func(c *Client, err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		shutdown := func() {
			c.Close()
			srv.Close()
		}
		fn(l, c, shutdown)
	})
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop did not terminate")
	}
}

func TestSetGet(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Set("k", "v", func(err error) {
			if err != nil {
				t.Errorf("set: %v", err)
			}
			c.Get("k", func(val string, ok bool, err error) {
				if err != nil || !ok || val != "v" {
					t.Errorf("get = (%q, %v, %v)", val, ok, err)
				}
				shutdown()
			})
		})
	})
}

func TestGetMissing(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Get("nope", func(val string, ok bool, err error) {
			if err != nil || ok || val != "" {
				t.Errorf("get missing = (%q, %v, %v)", val, ok, err)
			}
			shutdown()
		})
	})
}

func TestIncr(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Incr("n", func(n int, err error) {
			if n != 1 || err != nil {
				t.Errorf("incr = %d, %v", n, err)
			}
			c.Incr("n", func(n int, err error) {
				if n != 2 || err != nil {
					t.Errorf("incr = %d, %v", n, err)
				}
				shutdown()
			})
		})
	})
}

func TestSetNXLocking(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.SetNX("lock", "me", 0, func(acquired bool, err error) {
			if !acquired || err != nil {
				t.Errorf("first setnx = %v, %v", acquired, err)
			}
			c.SetNX("lock", "other", 0, func(acquired bool, err error) {
				if acquired {
					t.Error("second setnx acquired a held lock")
				}
				shutdown()
			})
		})
	})
}

func TestSetNXTTLExpires(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.SetNX("lock", "me", 5, func(acquired bool, err error) {
			if !acquired {
				t.Error("lock not acquired")
			}
			l.SetTimeout(20*time.Millisecond, func() {
				c.SetNX("lock", "again", 0, func(acquired bool, err error) {
					if !acquired {
						t.Error("expired lock not reacquirable")
					}
					shutdown()
				})
			})
		})
	})
}

func TestDelAndExists(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Set("k", "v", func(error) {
			c.Exists("k", func(ok bool, _ error) {
				if !ok {
					t.Error("k should exist")
				}
				c.Del("k", func(error) {
					c.Exists("k", func(ok bool, _ error) {
						if ok {
							t.Error("k still exists after del")
						}
						shutdown()
					})
				})
			})
		})
	})
}

func TestHashOps(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.HSet("h", "f1", "v1", func(error) {
			c.HSet("h", "f2", "v2", func(error) {
				c.HGet("h", "f1", func(val string, ok bool, _ error) {
					if !ok || val != "v1" {
						t.Errorf("hget = %q, %v", val, ok)
					}
					c.HGet("h", "f3", func(val string, ok bool, _ error) {
						if ok || val != "" {
							t.Errorf("hget of a missing field = %q, %v", val, ok)
						}
						shutdown()
					})
				})
			})
		})
	})
}

// TestSameConnectionFIFO: with a pool of one connection, command order is
// processing order, so a blind write-then-read sequence is safe.
func TestSameConnectionFIFO(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Set("k", "first", nil2)
		c.Set("k", "second", nil2)
		c.Get("k", func(val string, ok bool, err error) {
			if val != "second" {
				t.Errorf("val = %q, want second (FIFO on one connection)", val)
			}
			shutdown()
		})
	})
}

func nil2(error) {}

// TestPooledConnectionsCanReorder documents the realistic driver behaviour
// the bugs depend on: across many seeds, two commands issued back-to-back
// on a pool of 2 connections are sometimes processed out of issue order.
func TestPooledConnectionsCanReorder(t *testing.T) {
	reordered := 0
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		l := eventloop.New(eventloop.Options{})
		net := simnet.New(simnet.Config{Seed: seed, MinLatency: 10 * time.Microsecond, MaxLatency: 400 * time.Microsecond})
		srv, err := NewServer(l, net, "db")
		if err != nil {
			t.Fatal(err)
		}
		NewClient(l, net, "db", 2, func(c *Client, err error) {
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			remaining := 2
			fin := func(error) {
				remaining--
				if remaining == 0 {
					c.Get("k", func(val string, ok bool, _ error) {
						if val == "first" {
							reordered++
						}
						c.Close()
						srv.Close()
					})
				}
			}
			// Issued in order: "first" then "second". On one connection the
			// final value is always "second"; on a pool it sometimes ends
			// up "first".
			c.Set("k", "first", fin)
			c.Set("k", "second", fin)
		})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		net.Close()
	}
	t.Logf("reordered %d/%d trials", reordered, trials)
	if reordered == 0 {
		t.Error("pooled connections never reordered commands; the DB races cannot manifest")
	}
	if reordered == trials {
		t.Error("pooled connections always reordered; latency model suspicious")
	}
}

func TestClientClosedReportsError(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		shutdown()
		c.Get("k", func(_ string, _ bool, err error) {
			if err == nil {
				t.Error("command on closed client succeeded")
			}
		})
	})
}

func TestServerCountsRequests(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Do(OpPing, nil, func(r Reply) {
			if !r.OK || r.Val != "PONG" {
				t.Errorf("ping = %+v", r)
			}
			shutdown()
		})
	})
}

func TestUnknownOp(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Do("BOGUS", nil, func(r Reply) {
			if r.Err == nil {
				t.Error("unknown op did not error")
			}
			shutdown()
		})
	})
}

func TestAppendOp(t *testing.T) {
	env(t, 1, func(l *eventloop.Loop, c *Client, shutdown func()) {
		c.Do(OpAppend, []string{"log", "a"}, nil)
		c.Do(OpAppend, []string{"log", "b"}, func(r Reply) {
			if r.Val != "ab" || !r.OK {
				t.Errorf("append = %+v", r)
			}
			shutdown()
		})
	})
}
