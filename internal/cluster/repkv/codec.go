package repkv

import (
	"errors"

	"nodefz/internal/wire"
)

// msgType is a message's type code, its first byte on the wire.
type msgType byte

const (
	msgReq      msgType = iota + 1 // client -> leader: INCR key
	msgReply                       // leader -> client: ack or NAK
	msgGet                         // client -> any: local read
	msgGetReply                    // any -> client: local value
	msgPrep                        // leader -> backups: full log + commit
	msgPrepOK                      // backup -> leader: ack, Commit = log length
	msgCommit                      // leader -> backups: commit index, heartbeat
	msgSVC                         // backup -> all: start-view-change vote
	msgSV                          // new leader -> all: start view
	msgGetState                    // recovering or stale node -> any
	msgState                       // normal node -> asker: log + commit
)

var errMsgType = errors.New("repkv: unknown message type")

// A message on the wire is every field of msg in declaration order, each
// present whatever the type:
//
//	T byte, View varint, From varint, Seq varint, Key string, Val varint,
//	Commit varint, OK bool, Log count, then per entry: View varint,
//	Seq varint, Key string
//
// A nil and an empty Log both encode as count 0 and decode as nil.

// appendMsg appends m's encoding to b.
func appendMsg(b []byte, m msg) []byte {
	b = append(b, byte(m.T))
	b = wire.AppendVarint(b, int64(m.View))
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendVarint(b, int64(m.Seq))
	b = wire.AppendString(b, m.Key)
	b = wire.AppendVarint(b, int64(m.Val))
	b = wire.AppendVarint(b, int64(m.Commit))
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendUvarint(b, uint64(len(m.Log)))
	for _, e := range m.Log {
		b = appendEntry(b, e)
	}
	return b
}

// decodeMsg decodes one message. Malformed input, including an unknown
// type code, is an error; the receiver drops the message.
func decodeMsg(data []byte) (msg, error) {
	r := wire.NewReader(data)
	var m msg
	m.T = msgType(r.Byte())
	m.View = int(r.Varint())
	m.From = int(r.Varint())
	m.Seq = int(r.Varint())
	m.Key = r.String()
	m.Val = int(r.Varint())
	m.Commit = int(r.Varint())
	m.OK = r.Bool()
	if n := r.Count(); n > 0 {
		m.Log = make([]entry, n)
		for i := range m.Log {
			m.Log[i] = readEntry(&r)
		}
	}
	if err := r.Done(); err != nil {
		return msg{}, err
	}
	if m.T < msgReq || m.T > msgState {
		return msg{}, errMsgType
	}
	return m, nil
}

func appendEntry(b []byte, e entry) []byte {
	b = wire.AppendVarint(b, int64(e.View))
	b = wire.AppendVarint(b, int64(e.Seq))
	return wire.AppendString(b, e.Key)
}

func readEntry(r *wire.Reader) entry {
	var e entry
	e.View = int(r.Varint())
	e.Seq = int(r.Varint())
	e.Key = r.String()
	return e
}

// The WAL is a stream of records, each a kind byte and its fields:
//
//	walEntry   an appended log entry: View varint, Seq varint, Key string
//	walCommit  a commit advance: the committed prefix length, varint
//
// simfs appends are atomic, so a record is never torn; recovery stops at
// the first malformed record all the same.
const (
	walEntry  byte = 1
	walCommit byte = 2
)

func appendWALEntry(b []byte, e entry) []byte {
	return appendEntry(append(b, walEntry), e)
}

func appendWALCommit(b []byte, c int) []byte {
	return wire.AppendVarint(append(b, walCommit), int64(c))
}

// decodeWAL folds a WAL back into its log and committed prefix length.
func decodeWAL(data []byte) (lg []entry, committed int) {
	r := wire.NewReader(data)
	for r.More() {
		switch r.Byte() {
		case walEntry:
			e := readEntry(&r)
			if r.Err() != nil {
				return lg, committed
			}
			lg = append(lg, e)
		case walCommit:
			c := int(r.Varint())
			if r.Err() != nil {
				return lg, committed
			}
			committed = max(committed, c)
		default:
			return lg, committed
		}
	}
	return lg, committed
}
