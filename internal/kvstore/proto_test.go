package kvstore

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
)

func TestRequestResponseRoundTrip(t *testing.T) {
	for _, req := range []request{
		{ID: 1, Op: OpPing},                  // nil Args
		{ID: 2, Op: OpGet, Args: []string{}}, // empty Args
		{ID: 1 << 63, Op: OpSetNX, Args: []string{"lock", "", "250"}},
	} {
		got, err := decodeRequest(appendRequest(nil, req))
		if err != nil {
			t.Errorf("%+v: decode: %v", req, err)
			continue
		}
		if got.ID != req.ID || got.Op != req.Op || len(got.Args) != len(req.Args) ||
			(len(req.Args) > 0 && !reflect.DeepEqual(got.Args, req.Args)) {
			t.Errorf("round trip: got %+v, want %+v", got, req)
		}
	}
	for _, resp := range []response{
		{ID: 3},
		{ID: 4, Val: "PONG", OK: true},
		{ID: 5, Err: "unknown op FLUSHALL"},
	} {
		got, err := decodeResponse(appendResponse(nil, resp))
		if err != nil || got != resp {
			t.Errorf("round trip: got %+v, %v; want %+v", got, err, resp)
		}
	}
}

// TestMalformedRequestGetsBadRequest sends a truncated request and one with
// trailing bytes straight onto a server connection: each gets a "bad
// request" reply carrying its ID, and neither is applied.
func TestMalformedRequestGetsBadRequest(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := simnet.New(simnet.Config{Seed: 42, MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond})
	defer net.Close()
	srv, err := NewServer(l, net, "db")
	if err != nil {
		t.Fatal(err)
	}
	set := appendRequest(nil, request{ID: 7, Op: OpSet, Args: []string{"k", "v"}})
	get := appendRequest(nil, request{ID: 8, Op: OpGet, Args: []string{"k"}})
	sent := [][]byte{set[:len(set)-1], append(get, 0)}
	var replies []response
	net.Dial(l, "db", func(conn *simnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			srv.Close()
			return
		}
		conn.OnData(func(msg []byte) {
			resp, err := decodeResponse(msg)
			if err != nil {
				t.Errorf("undecodable reply: %v", err)
			}
			replies = append(replies, resp)
			if len(replies) == len(sent) {
				conn.Close()
				srv.Close()
			}
		})
		for _, m := range sent {
			_ = conn.Send(m)
		}
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
	if len(replies) != len(sent) {
		t.Fatalf("%d replies to %d malformed requests", len(replies), len(sent))
	}
	for i, want := range []uint64{7, 8} {
		if r := replies[i]; r.ID != want || r.OK || !strings.HasPrefix(r.Err, "bad request: ") {
			t.Errorf("reply %d = %+v, want ID %d and a bad request error", i, r, want)
		}
	}
	if srv.Requests() != 0 {
		t.Errorf("server applied %d malformed requests", srv.Requests())
	}
}
