package simnet

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

func runLoop(t *testing.T, l *eventloop.Loop) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop did not terminate")
	}
}

func fastNet(seed int64) *Network {
	return New(Config{Seed: seed, MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond})
}

func TestDialConnectAndEcho(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(1)
	defer net.Close()

	var got string
	ln, err := net.Listen(l, "srv", func(c *Conn) {
		c.OnData(func(msg []byte) {
			_ = c.Send(append([]byte("echo:"), msg...))
		})
		c.OnClose(func() {})
	})
	if err != nil {
		t.Fatal(err)
	}

	net.Dial(l, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.OnData(func(msg []byte) {
			got = string(msg)
			c.Close()
			ln.Close(nil)
		})
		_ = c.Send([]byte("hi"))
	})
	runLoop(t, l)
	if got != "echo:hi" {
		t.Fatalf("got %q", got)
	}
}

func TestDialRefusedWhenNoListener(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(1)
	defer net.Close()
	var gotErr error
	net.Dial(l, "nowhere", func(c *Conn, err error) { gotErr = err })
	runLoop(t, l)
	if !errors.Is(gotErr, ErrConnectionRefused) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestListenAddrInUse(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(1)
	defer net.Close()
	ln, err := net.Listen(l, "a", func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen(l, "a", func(*Conn) {}); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second listen = %v", err)
	}
	ln.Close(nil)
	runLoop(t, l)
	// After close, the address is free again.
	ln2, err := net.Listen(l, "a", func(*Conn) {})
	if err != nil {
		t.Fatalf("relisten = %v", err)
	}
	ln2.Close(nil)
	runLoop(t, l)
}

// TestPerConnectionFIFO is the key legality invariant (§4.2.1): messages on
// one connection arrive in send order, whatever the latency samples say.
func TestPerConnectionFIFO(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		l := eventloop.New(eventloop.Options{})
		net := fastNet(seed)

		const n = 50
		var got []int
		ln, err := net.Listen(l, "srv", func(c *Conn) {
			c.OnData(func(msg []byte) {
				var v int
				fmt.Sscanf(string(msg), "%d", &v)
				got = append(got, v)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Dial(l, "srv", func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				_ = c.Send([]byte(fmt.Sprintf("%d", i)))
			}
			// Close after data: FIFO means the peer sees all n messages
			// before the close.
			c.Close()
			ln.Close(nil)
		})
		runLoop(t, l)
		net.Close()
		if len(got) != n {
			t.Fatalf("seed %d: received %d/%d messages", seed, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: out of order at %d: %v", seed, i, got[:i+1])
			}
		}
	}
}

func TestCloseNotifiesPeerAfterData(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(3)
	defer net.Close()

	var events []string
	ln, _ := net.Listen(l, "srv", func(c *Conn) {
		c.OnData(func(msg []byte) { events = append(events, "data:"+string(msg)) })
		c.OnClose(func() { events = append(events, "close") })
	})
	net.Dial(l, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		_ = c.Send([]byte("x"))
		c.Close()
		ln.Close(nil)
	})
	runLoop(t, l)
	if len(events) != 2 || events[0] != "data:x" || events[1] != "close" {
		t.Fatalf("events = %v", events)
	}
}

func TestSendOnClosedConnFails(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(4)
	defer net.Close()
	ln, _ := net.Listen(l, "srv", func(c *Conn) {})
	var sendErr error
	net.Dial(l, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close()
		sendErr = c.Send([]byte("late"))
		ln.Close(nil)
	})
	runLoop(t, l)
	if !errors.Is(sendErr, ErrClosed) {
		t.Fatalf("send on closed = %v", sendErr)
	}
}

func TestAcceptBeforeClientConnectCallback(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(5)
	defer net.Close()
	var order []string
	var ln *Listener
	ln, _ = net.Listen(l, "srv", func(c *Conn) {
		order = append(order, "accept")
	})
	net.Dial(l, "srv", func(c *Conn, err error) {
		order = append(order, "connect")
		if c != nil {
			c.Close()
		}
		ln.Close(nil)
	})
	runLoop(t, l)
	if len(order) != 2 || order[0] != "accept" || order[1] != "connect" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyConnectionsAllServed(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(6)
	defer net.Close()

	const n = 20
	served := 0
	replies := 0
	var ln *Listener
	ln, _ = net.Listen(l, "srv", func(c *Conn) {
		served++
		c.OnData(func(msg []byte) { _ = c.Send(msg) })
	})
	for i := 0; i < n; i++ {
		net.Dial(l, "srv", func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.OnData(func([]byte) {
				replies++
				c.Close()
				if replies == n {
					ln.Close(nil)
				}
			})
			_ = c.Send([]byte("ping"))
		})
	}
	runLoop(t, l)
	if served != n || replies != n {
		t.Fatalf("served=%d replies=%d, want %d", served, replies, n)
	}
}

func TestDialAfterListenerClosedIsRefused(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(7)
	defer net.Close()
	ln, _ := net.Listen(l, "srv", func(c *Conn) { t.Error("accepted after close") })
	ln.Close(nil)
	var gotErr error
	net.Dial(l, "srv", func(c *Conn, err error) { gotErr = err })
	runLoop(t, l)
	if !errors.Is(gotErr, ErrConnectionRefused) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestDataAfterLocalCloseIsDropped(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := fastNet(8)
	defer net.Close()
	var ln *Listener
	ln, _ = net.Listen(l, "srv", func(c *Conn) {
		// Server closes instantly; client data racing with the close must
		// not reach a handler after close.
		c.OnData(func([]byte) { t.Error("data after close") })
		c.Close()
	})
	net.Dial(l, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		_ = c.Send([]byte("racing"))
		c.OnClose(func() { ln.Close(nil) })
	})
	runLoop(t, l)
}

// TestResetReusesEndpoints: a reset network builds connection k of its next
// trial on the endpoints that served connection k before, names included,
// and the trial runs exactly as the first one did: every endpoint starts
// open, with no peer, handlers or FIFO horizon left over.
func TestResetReusesEndpoints(t *testing.T) {
	clk := vclock.NewVirtual()
	l := eventloop.New(eventloop.Options{Clock: clk})
	cfg := Config{Seed: 3, Clock: clk}
	n := New(cfg)
	trial := func() (log []string, conns []*Conn) {
		ln, err := n.Listen(l, "srv", func(c *Conn) {
			conns = append(conns, c)
			c.OnData(func(msg []byte) {
				log = append(log, fmt.Sprintf("%s got %s at %d", c.Name(), msg, clk.Nanos()))
				c.Close()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		left := 2
		for i := 0; i < 2; i++ {
			n.Dial(l, "srv", func(c *Conn, err error) {
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, c)
				c.OnClose(func() {
					log = append(log, fmt.Sprintf("%s closed at %d", c.Name(), clk.Nanos()))
					if left--; left == 0 {
						ln.Close(nil)
					}
				})
				if err := c.Send([]byte(c.Name())); err != nil {
					t.Fatal(err)
				}
			})
		}
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		n.Close()
		return log, conns
	}
	log1, conns1 := trial()
	clk.Reset()
	l.Reset()
	l.RestartPool()
	n.Reset(cfg)
	log2, conns2 := trial()
	if fmt.Sprint(log2) != fmt.Sprint(log1) {
		t.Fatalf("the reset trial ran differently\nfirst %v\nreset %v", log1, log2)
	}
	if len(conns1) != 4 || !slices.Equal(conns2, conns1) {
		t.Fatalf("the reset trial built new endpoints: %v, then %v", conns1, conns2)
	}
	names := map[string]bool{}
	for _, c := range conns2 {
		names[c.Name()] = true
	}
	for _, want := range []string{"conn1:client", "conn1:server", "conn2:client", "conn2:server"} {
		if !names[want] {
			t.Fatalf("no endpoint named %s among %v", want, names)
		}
	}
}
