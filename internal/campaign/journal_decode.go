package campaign

import (
	"encoding/json"
	"strconv"
)

// journalDecoder reads the two record types a resume reads in bulk, trial
// and coverage, without reflection. It walks the shape encoding/json writes
// for TrialEntry and CoverageEntry:
//
//   - one object of known keys, in any order, each at most once (an
//     omitempty key may be absent);
//   - ASCII strings with the escapes encoding/json emits: \" \\ \b \f \n
//     \r \t and \u00XX below 0x80 (every coverage tuple carries \u003e);
//   - numbers in JSON's grammar, parsed with strconv into the field's type;
//   - true, false and arrays of strings;
//
// and no whitespace between tokens. A line outside that shape — a byte of
// 0x80 or above, a \u escape above 0x7f, null, an unknown, case-variant or
// duplicate key, a number outside the grammar or the field's range,
// trailing bytes — goes to json.Unmarshal whole, so a torn line still fails
// there and non-ASCII text keeps encoding/json's UTF-8 rules.
//
// The strings that repeat across a journal (record types, arm names,
// notes, schedule kinds) are interned once per decoder; arrays are read
// into a reused scratch slice and copied out at their exact size, and
// escapes are undone into a reused buffer. A decoder serves one
// LoadJournal call.
type journalDecoder struct {
	line []byte
	pos  int    // next unread byte of line
	keys int    // keys read from the current object
	seen uint32 // one bit per field already read
	bad  bool   // the line left the accepted shape

	strs map[string]string
	buf  []byte
	list []string
}

// trial decodes a trial record.
func (d *journalDecoder) trial(line []byte) (TrialEntry, error) {
	var e TrialEntry
	if d.scanTrial(line, &e) {
		return e, nil
	}
	return unmarshal[TrialEntry](line)
}

// coverage decodes a coverage record.
func (d *journalDecoder) coverage(line []byte) (CoverageEntry, error) {
	var e CoverageEntry
	if d.scanCoverage(line, &e) {
		return e, nil
	}
	return unmarshal[CoverageEntry](line)
}

// unmarshal decodes a line the scanner declined into a fresh record; its
// own variable keeps the scanner's record off the heap.
func unmarshal[T any](line []byte) (T, error) {
	var e T
	err := json.Unmarshal(line, &e)
	return e, err
}

// scanTrial fills e from line and reports whether the line had the
// accepted shape; on false, e holds a partial decode.
func (d *journalDecoder) scanTrial(line []byte, e *TrialEntry) bool {
	d.begin(line)
	for d.key() {
		switch string(d.keyName()) {
		case "type":
			d.field(0)
			e.Type = d.internString()
		case "trial":
			d.field(1)
			e.Trial = d.int()
		case "seed":
			d.field(2)
			e.Seed = d.int64()
		case "arm":
			d.field(3)
			e.Arm = d.int()
		case "arm_name":
			d.field(4)
			e.ArmName = d.internString()
		case "manifested":
			d.field(5)
			e.Manifested = d.bool()
		case "note":
			d.field(6)
			e.Note = d.internString()
		case "novelty":
			d.field(7)
			e.Novelty = d.float()
		case "admitted":
			d.field(8)
			e.Admitted = d.bool()
		case "duplicate":
			d.field(9)
			e.Duplicate = d.bool()
		case "digest":
			d.field(10)
			e.Digest = d.string()
		case "reward":
			d.field(11)
			e.Reward = d.float()
		case "elapsed_ms":
			d.field(12)
			e.ElapsedMS = d.int64()
		case "schedule":
			d.field(13)
			e.Schedule = d.strings(true)
		case "violations":
			d.field(14)
			e.Violations = d.int()
		case "new_coverage":
			d.field(15)
			e.NewCoverage = d.float()
		default:
			d.bad = true
		}
	}
	return d.end()
}

// scanCoverage is scanTrial for a coverage record.
func (d *journalDecoder) scanCoverage(line []byte, e *CoverageEntry) bool {
	d.begin(line)
	for d.key() {
		switch string(d.keyName()) {
		case "type":
			d.field(0)
			e.Type = d.internString()
		case "trial":
			d.field(1)
			e.Trial = d.int()
		case "pairs":
			d.field(2)
			e.Pairs = d.strings(false)
		case "hb_digest":
			d.field(3)
			e.HBDigest = d.string()
		case "tuples":
			d.field(4)
			e.Tuples = d.strings(false)
		default:
			d.bad = true
		}
	}
	return d.end()
}

// begin starts a line, which must open an object.
func (d *journalDecoder) begin(line []byte) {
	d.line, d.pos, d.keys, d.seen, d.bad = line, 0, 0, 0, false
	d.eat('{')
}

// end reports whether the line was one accepted object and nothing more.
func (d *journalDecoder) end() bool {
	return !d.bad && d.pos == len(d.line)
}

// key advances past the separator to the next key, stopping before its
// name, and reports false at the object's closing brace or once the line
// has left the accepted shape.
func (d *journalDecoder) key() bool {
	if d.bad {
		return false
	}
	if d.peek() == '}' {
		d.pos++
		return false
	}
	if d.keys > 0 {
		d.eat(',')
	}
	d.keys++
	return !d.bad
}

// keyName reads a key and its colon. A key holding an escape can name no
// field as written, so it is left to encoding/json.
func (d *journalDecoder) keyName() []byte {
	if !d.eat('"') {
		return nil
	}
	start := d.pos
	for d.pos < len(d.line) {
		switch c := d.line[d.pos]; {
		case c == '"':
			name := d.line[start:d.pos]
			d.pos++
			d.eat(':')
			return name
		case c == '\\' || c < 0x20 || c >= 0x80:
			d.bad = true
			return nil
		}
		d.pos++
	}
	d.bad = true
	return nil
}

// field marks field i read; a repeated key leaves the accepted shape.
func (d *journalDecoder) field(i uint) {
	if d.seen&(1<<i) != 0 {
		d.bad = true
	}
	d.seen |= 1 << i
}

func (d *journalDecoder) peek() byte {
	if d.pos < len(d.line) {
		return d.line[d.pos]
	}
	return 0
}

// eat consumes c, or marks the line bad.
func (d *journalDecoder) eat(c byte) bool {
	if d.bad || d.peek() != c {
		d.bad = true
		return false
	}
	d.pos++
	return true
}

// literal consumes word.
func (d *journalDecoder) literal(word string) bool {
	if d.bad || len(d.line)-d.pos < len(word) || string(d.line[d.pos:d.pos+len(word)]) != word {
		d.bad = true
		return false
	}
	d.pos += len(word)
	return true
}

func (d *journalDecoder) bool() bool {
	if d.peek() == 't' {
		return d.literal("true")
	}
	d.literal("false")
	return false
}

// number reads a number in JSON's grammar: -?(0|[1-9][0-9]*), then, unless
// integer, an optional fraction and exponent. A fraction or exponent after
// an integer field's digits is left unread, so the separator check that
// follows fails and encoding/json reports the type error.
func (d *journalDecoder) number(integer bool) []byte {
	if d.bad {
		return nil
	}
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.bad = true
		return nil
	}
	if !integer {
		if d.peek() == '.' {
			d.pos++
			if !d.digits() {
				return nil
			}
		}
		if c := d.peek(); c == 'e' || c == 'E' {
			d.pos++
			if c := d.peek(); c == '+' || c == '-' {
				d.pos++
			}
			if !d.digits() {
				return nil
			}
		}
	}
	return d.line[start:d.pos]
}

// digits consumes one or more decimal digits.
func (d *journalDecoder) digits() bool {
	start := d.pos
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
	}
	if d.pos == start {
		d.bad = true
		return false
	}
	return true
}

func (d *journalDecoder) int() int {
	n, err := strconv.ParseInt(string(d.number(true)), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(n)
}

func (d *journalDecoder) int64() int64 {
	n, err := strconv.ParseInt(string(d.number(true)), 10, 64)
	if err != nil {
		d.bad = true
	}
	return n
}

func (d *journalDecoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number(false)), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

// stringBytes reads a string and returns its unescaped bytes: a slice of
// the line when it holds no escape, else of d.buf, valid until the next
// read either way.
func (d *journalDecoder) stringBytes() []byte {
	if !d.eat('"') {
		return nil
	}
	start := d.pos
	for d.pos < len(d.line) {
		switch c := d.line[d.pos]; {
		case c == '"':
			d.pos++
			return d.line[start : d.pos-1]
		case c == '\\':
			return d.unescape(start)
		case c < 0x20 || c >= 0x80:
			d.bad = true
			return nil
		}
		d.pos++
	}
	d.bad = true
	return nil
}

// unescape finishes a string whose first escape is at d.pos, copying it
// from start into d.buf with its escapes undone.
func (d *journalDecoder) unescape(start int) []byte {
	b := append(d.buf[:0], d.line[start:d.pos]...)
	for d.pos < len(d.line) {
		c := d.line[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.buf = b
			return b
		case c < 0x20 || c >= 0x80:
			d.bad = true
			return nil
		case c != '\\':
			b = append(b, c)
			d.pos++
			continue
		}
		if d.pos+1 == len(d.line) {
			break
		}
		switch e := d.line[d.pos+1]; e {
		case '"', '\\':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r := d.hex4(d.pos + 2)
			if r < 0 || r >= 0x80 {
				d.bad = true
				return nil
			}
			b = append(b, byte(r))
			d.pos += 6
			continue
		default:
			d.bad = true
			return nil
		}
		d.pos += 2
	}
	d.bad = true
	return nil
}

// hex4 returns the value of the four hex digits at i, or -1.
func (d *journalDecoder) hex4(i int) int {
	if len(d.line)-i < 4 {
		return -1
	}
	r := 0
	for _, c := range d.line[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | int(c)
	}
	return r
}

func (d *journalDecoder) string() string {
	return string(d.stringBytes())
}

// internString reads a string, sharing one copy per distinct value.
func (d *journalDecoder) internString() string {
	return d.intern(d.stringBytes())
}

func (d *journalDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// strings reads an array of strings, interning the elements when intern
// is set. The result has exactly the array's length; [] is empty, not nil,
// as encoding/json decodes it.
func (d *journalDecoder) strings(intern bool) []string {
	if !d.eat('[') {
		return nil
	}
	list := d.list[:0]
	if d.peek() == ']' {
		d.pos++
	} else {
		for !d.bad {
			b := d.stringBytes()
			if intern {
				list = append(list, d.intern(b))
			} else {
				list = append(list, string(b))
			}
			if d.peek() != ',' {
				d.eat(']')
				break
			}
			d.pos++
		}
	}
	d.list = list
	if d.bad {
		return nil
	}
	return append(make([]string, 0, len(list)), list...)
}
