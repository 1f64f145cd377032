package bugs

import (
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/oracle"
	"nodefz/internal/simnet"
)

// sioNovelApp models the novel socket.io bug of §5.2.1 (PR 2721, commit
// c94058f9): an atomicity violation between a network event and a timer. A
// test case fails to clean up a client that sits on a repeating reconnect
// timer; when that timer happens to wake during a later, sensitive test
// case, it steals a connection to the shared server and the sensitive test
// times out.
//
// The accepted fix disables the automatic reconnection when the test tears
// down.
func sioNovelApp() *App {
	return &App{
		Abbr: "SIO-novel", Name: "socket.io", Issue: "PR 2721",
		Type: "Module", LoC: "4.6K", DlMo: "4.9M",
		Desc:         "Real-time server framework (test suite)",
		RaceType:     "AV",
		RacingEvents: "NW-Timer",
		RaceOn:       "Socket",
		Impact:       "Subsequent tests fail because the server's socket is occupied.",
		FixStrategy:  "Disable automatic reconnection.",
		Novel:        true,
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return sioNovelRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return sioNovelRun(cfg, true) },
	}
}

func sioNovelRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	net := cfg.NewNet()
	defer net.Close()
	Watchdog(l, 3*time.Second)

	var out Outcome

	// The shared server all test cases talk to. During test 2's sensitive
	// window it counts the connections the reconnect timer makes: only
	// those are strays. Test 1's own setup connection may reach the server
	// late, inside the window, but it is not the leak.
	windowOpen := false
	strayDuringWindow := 0
	var serverConns []*simnet.Conn
	ln, err := net.Listen(l, "sio", func(c *simnet.Conn) {
		serverConns = append(serverConns, c)
		c.OnData(func(msg []byte) {
			if windowOpen && string(msg) == "hello-reconnect" {
				strayDuringWindow++
			}
			_ = c.Send([]byte("ack"))
		})
	})
	if err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}

	// --- test 1: a client with automatic reconnection ---
	// The accepted fix disables automatic reconnection for the test
	// (§5.2.1), so the patched variant never creates the timer at all.
	test1Connected := false
	var reconnect *eventloop.Timer
	var test1Conn *simnet.Conn
	if !fixed {
		reconnect = l.SetIntervalNamed("reconnect", 8*time.Millisecond, func() {
			// Oracle: the leaked timer consults test 1's liveness and acts on
			// it — it relies on the suite's teardown not having moved on. The
			// patched variant never creates this timer, so the reliance (and
			// the tag) exists only in the buggy variant.
			cfg.Oracle.Access("sion:test1", oracle.Read)
			if test1Connected {
				return
			}
			// Disconnected: reconnect to the shared server.
			net.Dial(l, "sio", func(conn *simnet.Conn, err error) {
				if err != nil {
					return
				}
				cfg.Oracle.Access("sion:test1", oracle.Write)
				test1Connected = true
				test1Conn = conn
				_ = conn.Send([]byte("hello-reconnect"))
			})
		})
	}
	net.Dial(l, "sio", func(conn *simnet.Conn, err error) {
		if err != nil {
			if out.Note == "" {
				out.Note = "setup: " + err.Error()
			}
			return
		}
		test1Connected = true
		test1Conn = conn
		_ = conn.Send([]byte("hello-test1"))
	})
	// Test 1 tears down at 15ms: it closes its connection but — the bug —
	// leaves the reconnect timer running. (The initial connect above is
	// test 1's setup, ordered before the suite moves on by construction, so
	// its write carries no reliance and stays untagged.)
	l.SetTimeout(15*time.Millisecond, func() {
		cfg.Oracle.Access("sion:test1", oracle.Write)
		test1Connected = false
		if test1Conn != nil {
			test1Conn.Close()
		}
	})

	// --- test 2: sensitive, expects to be alone on the server ---
	test2Done := false
	l.SetTimeout(28*time.Millisecond, func() {
		windowOpen = true
		net.Dial(l, "sio", func(conn *simnet.Conn, err error) {
			if err != nil {
				if out.Note == "" {
					out.Note = "setup: " + err.Error()
				}
				return
			}
			conn.OnData(func([]byte) {
				// test 2's request/response exchange, repeated a few times
				// to keep the window realistic.
			})
			_ = conn.Send([]byte("hello-test2"))
			l.SetTimeout(30*time.Millisecond, func() {
				windowOpen = false
				test2Done = true
				conn.Close()
				if reconnect != nil {
					reconnect.Stop() // end of suite: stop the leak for shutdown
				}
				for _, sc := range serverConns {
					sc.Close()
				}
				serverConns = nil
				ln.Close(nil)
			})
		})
	})

	AddTimerNoise(l, 1500*time.Microsecond, 60*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	if test2Done && strayDuringWindow > 0 {
		out.Manifested = true
		out.Note = "test 2 timed out: a leaked reconnect timer stole a connection during its window"
	}
	return out
}
