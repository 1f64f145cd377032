package repkv

import (
	"reflect"
	"testing"

	"nodefz/internal/cluster"
	"nodefz/internal/simfs"
)

func TestMsgRoundTrip(t *testing.T) {
	log := []entry{{View: 0, Seq: 0, Key: "y"}, {View: 3, Seq: 17, Key: "x"}, {View: -1, Seq: -2, Key: ""}}
	for _, m := range []msg{
		{T: msgReq, Seq: 2, Key: "x"},
		{T: msgReply, View: 4, From: 1, Seq: 2, OK: true},
		{T: msgReply, View: 4, From: 1, Seq: 2}, // a NAK: OK false
		{T: msgGet, Key: "x"},
		{T: msgGetReply, View: 1, From: 2, Key: "x", Val: 5},
		{T: msgPrep, View: 2, From: 2, Log: log, Commit: 1},
		{T: msgPrepOK, View: 2, From: 0, Commit: 3},
		{T: msgCommit, View: 2, From: 2, Commit: 3},
		{T: msgSVC, View: 5, From: 1, Log: log[:1], Commit: 1},
		{T: msgSVC, View: 5, From: 1}, // nil log, zero commit
		{T: msgSV, View: 5, From: 2, Log: log, Commit: 2},
		{T: msgGetState, View: 7, From: 0},
		{T: msgState, View: 7, From: 1, Log: log, Commit: 3},
		{T: msgState, View: 1 << 40, From: 1<<31 - 1, Seq: -5, Val: -1 << 40, Commit: 1 << 33},
	} {
		got, err := decodeMsg(appendMsg(nil, m))
		if err != nil {
			t.Errorf("%+v: decode: %v", m, err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
		}
	}
	// An empty log decodes as nil, as the nil log it is equivalent to.
	got, err := decodeMsg(appendMsg(nil, msg{T: msgSV, Log: []entry{}}))
	if err != nil || got.Log != nil {
		t.Errorf("empty log: got %+v, %v; want a nil log", got.Log, err)
	}
}

func TestMsgDecodeRejectsMalformed(t *testing.T) {
	valid := appendMsg(nil, msg{T: msgPrep, View: 1, Log: []entry{{Seq: 1, Key: "x"}}, Commit: 1})
	unknown := appendMsg(nil, msg{T: msgState + 1})
	zero := appendMsg(nil, msg{})
	for name, data := range map[string][]byte{
		"empty":          nil,
		"truncated":      valid[:len(valid)-1],
		"trailing":       append(append([]byte(nil), valid...), 0),
		"unknown type":   unknown,
		"zero type":      zero,
		"torn log entry": valid[:len(valid)-3],
	} {
		if m, err := decodeMsg(data); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, m)
		}
	}
}

func TestWALRecoverRoundTrip(t *testing.T) {
	disk := simfs.New()
	w := &Replica{env: &cluster.Env{Disk: disk}}
	w.recover() // first boot: creates the empty WAL
	if w.status != "" || w.log != nil {
		t.Fatalf("first boot recovered state: status %q, log %v", w.status, w.log)
	}
	log := []entry{{View: 0, Seq: 0, Key: "y"}, {View: 1, Seq: 1, Key: "x"}, {View: 2, Seq: 2, Key: "x"}}
	w.walAppend(log[0])
	w.walCommit(1)
	w.walAppend(log[1])
	w.walAppend(log[2])
	w.walCommit(2)
	w.walCommit(0) // a stale commit record never lowers the prefix

	r := &Replica{env: &cluster.Env{Disk: disk}}
	r.recover()
	if !reflect.DeepEqual(r.log, log) {
		t.Errorf("recovered log %+v, want %+v", r.log, log)
	}
	if r.commit != 2 || r.view != 1 || r.status != "recovering" {
		t.Errorf("recovered commit %d view %d status %q, want 2, 1 (the committed prefix's), recovering",
			r.commit, r.view, r.status)
	}

	// A malformed record ends recovery; the records before it stand.
	data, err := disk.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := simfs.New()
	if err := torn.WriteFile(walPath, data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	r = &Replica{env: &cluster.Env{Disk: torn}}
	r.recover()
	if !reflect.DeepEqual(r.log, log) || r.commit != 2 {
		t.Errorf("torn final record: log %+v commit %d, want the full log and commit 2", r.log, r.commit)
	}
}
