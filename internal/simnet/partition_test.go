package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// The partition tests pin down the fault-injection semantics the cluster
// tier leans on: a cut drops traffic already in flight, refuses new dials,
// and — crucially for protocol code — preserves per-direction FIFO across a
// heal, so the only reordering a partition can cause is the wholesale loss
// of a contiguous window. Everything runs on one virtual clock (client
// loop, server loop, delivery engine) so the scripts replay identically.

// partitionPair builds a client loop, a server loop, and a network sharing
// one virtual clock. Latency is pinned to [1ms, 2ms] so the scripts below
// can place cuts and heals with deterministic margins.
func partitionPair(seed int64) (lc, ls *eventloop.Loop, net *Network) {
	v := vclock.NewVirtual()
	lc = eventloop.New(eventloop.Options{Clock: v})
	ls = eventloop.New(eventloop.Options{Clock: v})
	net = New(Config{Seed: seed, Clock: v,
		MinLatency: 1 * time.Millisecond, MaxLatency: 2 * time.Millisecond})
	return
}

// runBoth runs both loops to completion under the clock's grant protocol,
// as a cluster trial runs its node loops. The caller holds the run token
// from setup: b enters the run order through Loop.Go's grant, and a runs on
// a goroutine that inherits the token, then waits clock-blocked for b to
// drain, as cluster.Join does.
func runBoth(t *testing.T, a, b *eventloop.Loop) {
	t.Helper()
	errs := make(chan error, 2)
	bDone := make(chan struct{})
	b.Go(func(err error) { errs <- err; close(bDone) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		errs <- a.Run()
		clk := a.Clock()
		clk.Block()
		<-bDone
		clk.UnblockKeep()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("loops did not terminate")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
}

// TestPartitionDropsInFlight: a message already on the wire when the cut
// lands is lost — the transport never retransmits across a heal — while a
// message sent after the heal goes through on the same connection.
func TestPartitionDropsInFlight(t *testing.T) {
	lc, ls, net := partitionPair(1)
	defer net.Close()

	var got []string
	ln, err := net.Listen(ls, "srv", func(c *Conn) {
		c.OnData(func(msg []byte) { got = append(got, string(msg)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Dial(lc, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// "early" needs >=1ms of flight time; the cut lands now, before any
		// virtual time passes, so the delivery fires onto a dead wire.
		_ = c.Send([]byte("early"))
		net.Partition([]*eventloop.Loop{lc}, []*eventloop.Loop{ls})
		lc.SetTimeoutNamed("heal", 10*time.Millisecond, func() {
			net.Heal()
			_ = c.Send([]byte("late"))
			lc.SetTimeoutNamed("shutdown", 10*time.Millisecond, func() {
				c.Close()
				ln.Close(nil)
			})
		})
	})
	runBoth(t, lc, ls)
	if len(got) != 1 || got[0] != "late" {
		t.Fatalf("server received %v, want [late] only", got)
	}
}

// TestDialDuringPartitionRefused: a SYN cannot cross the cut, so the dial
// is refused rather than hung; after the heal the same address connects.
func TestDialDuringPartitionRefused(t *testing.T) {
	lc, ls, net := partitionPair(2)
	defer net.Close()

	ln, err := net.Listen(ls, "srv", func(c *Conn) {
		c.OnData(func(msg []byte) { _ = c.Send(msg) })
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Partition([]*eventloop.Loop{lc}, []*eventloop.Loop{ls})

	var refusedErr error
	var echoed bool
	net.Dial(lc, "srv", func(_ *Conn, err error) {
		refusedErr = err
		net.Heal()
		net.Dial(lc, "srv", func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial after heal: %v", err)
				return
			}
			c.OnData(func([]byte) {
				echoed = true
				c.Close()
				ln.Close(nil)
			})
			_ = c.Send([]byte("ping"))
		})
	})
	runBoth(t, lc, ls)
	if !errors.Is(refusedErr, ErrConnectionRefused) {
		t.Fatalf("dial across the cut = %v, want ErrConnectionRefused", refusedErr)
	}
	if !echoed {
		t.Fatal("dial after heal never echoed")
	}
}

// TestListenerCloseRacesHeal: a dial launched during the partition is still
// in flight when the listener closes and the network heals; whichever side
// of the heal the SYN lands on, it must be refused cleanly, never accepted
// by a dead listener and never left hanging.
func TestListenerCloseRacesHeal(t *testing.T) {
	lc, ls, net := partitionPair(3)
	defer net.Close()

	accepted := false
	ln, err := net.Listen(ls, "srv", func(*Conn) { accepted = true })
	if err != nil {
		t.Fatal(err)
	}
	net.Partition([]*eventloop.Loop{lc}, []*eventloop.Loop{ls})

	var dialErr error
	dialed := false
	lc.SetTimeoutNamed("dial", 1*time.Millisecond, func() {
		// Fires between 2ms and 3ms of virtual time — after both the close
		// and the heal below.
		net.Dial(lc, "srv", func(c *Conn, err error) {
			dialed, dialErr = true, err
			if c != nil {
				c.Close()
			}
		})
	})
	ls.SetTimeoutNamed("close", 1800*time.Microsecond, func() { ln.Close(nil) })
	lc.SetTimeoutNamed("heal", 1900*time.Microsecond, func() { net.Heal() })
	runBoth(t, lc, ls)
	if !dialed {
		t.Fatal("dial callback never ran")
	}
	if !errors.Is(dialErr, ErrConnectionRefused) {
		t.Fatalf("dial racing close+heal = %v, want ErrConnectionRefused", dialErr)
	}
	if accepted {
		t.Fatal("closed listener accepted a connection")
	}
}

// TestFIFOPerSourceAcrossHeal: §4.2.1's legality invariant survives fault
// injection. A partition may erase a contiguous window of a connection's
// traffic, but what does arrive is in send order — the cut must never
// reorder a direction, whatever the latency samples say.
func TestFIFOPerSourceAcrossHeal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		lc, ls, net := partitionPair(seed)

		var got []int
		ln, err := net.Listen(ls, "srv", func(c *Conn) {
			c.OnData(func(msg []byte) {
				var v int
				fmt.Sscanf(string(msg), "%d", &v)
				got = append(got, v)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		send := func(c *Conn, lo, hi int) {
			for i := lo; i < hi; i++ {
				_ = c.Send([]byte(fmt.Sprintf("%d", i)))
			}
		}
		net.Dial(lc, "srv", func(c *Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			send(c, 0, 5) // delivered well before the cut at +5ms
			lc.SetTimeoutNamed("cut", 5*time.Millisecond, func() {
				// 5..9 go onto the wire an instant before the cut: in
				// flight when it lands, lost on the dead link.
				send(c, 5, 10)
				net.Partition([]*eventloop.Loop{lc}, []*eventloop.Loop{ls})
				// 10..14 are sent into the cut itself: dropped at the
				// first hop, but still consuming latency samples.
				send(c, 10, 15)
				lc.SetTimeoutNamed("heal", 10*time.Millisecond, func() {
					net.Heal()
					send(c, 15, 20)
					lc.SetTimeoutNamed("shutdown", 10*time.Millisecond, func() {
						c.Close()
						ln.Close(nil)
					})
				})
			})
		})
		runBoth(t, lc, ls)
		net.Close()

		want := []int{0, 1, 2, 3, 4, 15, 16, 17, 18, 19}
		if len(got) != len(want) {
			t.Fatalf("seed %d: received %v, want %v", seed, got, want)
		}
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("seed %d: out of order at %d: %v", seed, i, got)
			}
		}
	}
}

// TestHalfOpenConnResetOnSend: the peer closes inside the partition, so its
// FIN is dropped at the cut and the sender is left half-open. As with TCP,
// the first post-heal segment to reach the dead endpoint resets the
// sender's side — the OnClose that keepalive-and-redial protocol logic
// (repkv's redial, for one) depends on to re-converge after a crash.
func TestHalfOpenConnResetOnSend(t *testing.T) {
	lc, ls, net := partitionPair(4)
	defer net.Close()

	var srvConn *Conn
	ln, err := net.Listen(ls, "srv", func(c *Conn) { srvConn = c })
	if err != nil {
		t.Fatal(err)
	}
	sawFIN, sawRST := false, false
	net.Dial(lc, "srv", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.OnClose(func() { sawRST = true })
		lc.SetTimeoutNamed("crash", 2*time.Millisecond, func() {
			net.Partition([]*eventloop.Loop{lc}, []*eventloop.Loop{ls})
			srvConn.Close() // the FIN dies on the cut link
			lc.SetTimeoutNamed("heal", 5*time.Millisecond, func() {
				net.Heal()
				if c.Closed() {
					sawFIN = true // the FIN crossed the cut: semantics broken
				}
				_ = c.Send([]byte("keepalive"))
				lc.SetTimeoutNamed("shutdown", 5*time.Millisecond, func() {
					ln.Close(nil)
				})
			})
		})
	})
	runBoth(t, lc, ls)
	if sawFIN {
		t.Fatal("peer's FIN was delivered through the partition")
	}
	if !sawRST {
		t.Fatal("send to the half-open peer did not reset the connection")
	}
}
