package wire

import (
	"fmt"
	"strconv"
)

// AppendEditsJSON decodes an HTTP POST /ingest body, a JSON array of edit
// objects, and appends the edits to dst. It is the one reader of that
// grammar, for graphd, graphctl and wirecli alike:
//
//   - an edit is an object of the keys src, dst, weight, time and delete,
//     spelled exactly so, each at most once, in any order;
//   - src and dst are required JSON integers that fit an int32, time an
//     optional integer that fits an int64, weight an optional JSON number
//     that fits a float32, delete an optional true or false;
//   - anything else — another key, a key in other case or escaped, null, a
//     fraction where an integer belongs, data after the array — is refused.
//
// Every body it accepts, encoding/json accepts into []IngestEdit with the
// same edits (FuzzIngestJSON); it refuses some bodies encoding/json would
// take, such as {"SRC":3} or an edit missing dst. The error is a 400 that
// names the edit by its index in the array and, where there is one, the
// key. One pass over body; numbers are parsed in place, so decoding into a
// dst with room allocates nothing. dst may hold edits already; on error the
// edits appended so far are returned with it.
func AppendEditsJSON(dst []IngestEdit, body []byte) ([]IngestEdit, error) {
	p := editParser{b: body, edit: -1}
	p.space()
	if !p.take('[') {
		return dst, p.fail("expected '[' to open the edit array")
	}
	p.space()
	if !p.take(']') {
		for {
			p.edit++
			var e IngestEdit
			if err := p.object(&e); err != nil {
				return dst, err
			}
			dst = append(dst, e)
			p.space()
			if p.take(']') {
				break
			}
			if !p.take(',') {
				return dst, p.fail("expected ',' or ']' after the edit")
			}
			p.space()
		}
	}
	p.edit = -1
	p.space()
	if p.i < len(p.b) {
		return dst, p.fail("unexpected data after the edit array")
	}
	return dst, nil
}

// editParser is AppendEditsJSON's cursor: body, the read offset, and the
// index of the edit being read (-1 outside the edits).
type editParser struct {
	b    []byte
	i    int
	edit int
}

// Bits of the keys an edit object has named.
const (
	keySrc = 1 << iota
	keyDst
	keyWeight
	keyTime
	keyDelete
)

// object reads one edit object into e.
func (p *editParser) object(e *IngestEdit) error {
	if !p.take('{') {
		return p.fail("expected '{' to open the edit")
	}
	var seen int
	p.space()
	if !p.take('}') {
		for {
			if err := p.member(e, &seen); err != nil {
				return err
			}
			p.space()
			if p.take('}') {
				break
			}
			if !p.take(',') {
				return p.fail("expected ',' or '}' after a value")
			}
			p.space()
		}
	}
	switch {
	case seen&keySrc == 0:
		return p.fail(`missing key "src"`)
	case seen&keyDst == 0:
		return p.fail(`missing key "dst"`)
	}
	return nil
}

// member reads one "key": value pair into e and marks the key in seen.
func (p *editParser) member(e *IngestEdit, seen *int) error {
	if !p.take('"') {
		return p.fail("expected a quoted key")
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' && p.b[p.i] != '\\' && p.b[p.i] >= 0x20 {
		p.i++
	}
	key := p.b[start:p.i]
	if !p.take('"') {
		return p.fail("key at offset %d is not a plain string", start-1)
	}
	var bit int
	switch string(key) {
	case "src":
		bit = keySrc
	case "dst":
		bit = keyDst
	case "weight":
		bit = keyWeight
	case "time":
		bit = keyTime
	case "delete":
		bit = keyDelete
	default:
		return p.fail("unknown key %q (the keys are src, dst, weight, time and delete)", key)
	}
	if *seen&bit != 0 {
		return p.fail("duplicate key %q", key)
	}
	*seen |= bit
	p.space()
	if !p.take(':') {
		return p.fail("expected ':' after key %q", key)
	}
	p.space()

	var err error
	switch bit {
	case keySrc:
		e.Src, err = p.vertex(key)
	case keyDst:
		e.Dst, err = p.vertex(key)
	case keyTime:
		var tok []byte
		if tok, err = p.number(key, true); err == nil {
			if e.Time, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
				err = p.fail("key %q: %s does not fit an int64", key, tok)
			}
		}
	case keyWeight:
		var tok []byte
		if tok, err = p.number(key, false); err == nil {
			var w float64
			if w, err = strconv.ParseFloat(string(tok), 32); err != nil {
				err = p.fail("key %q: %s does not fit a float32", key, tok)
			}
			e.Weight = float32(w)
		}
	case keyDelete:
		switch {
		case p.word("true"):
			e.Delete = true
		case p.word("false"):
			e.Delete = false
		default:
			err = p.fail("key %q: want true or false", key)
		}
	}
	return err
}

// vertex reads a JSON integer that fits an int32.
func (p *editParser) vertex(key []byte) (int32, error) {
	tok, err := p.number(key, true)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 32)
	if err != nil {
		return 0, p.fail("key %q: %s does not fit an int32", key, tok)
	}
	return int32(n), nil
}

// number scans one JSON number and returns its bytes: an optional minus,
// then 0 or a digit run without a leading zero, then — unless integer is
// set — an optional fraction and exponent.
func (p *editParser) number(key []byte, integer bool) ([]byte, error) {
	start := p.i
	p.take('-')
	switch {
	case p.take('0'):
	case p.digits() == 0:
		return nil, p.fail("key %q: want a number", key)
	}
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		if integer {
			return nil, p.fail("key %q: want an integer", key)
		}
		if p.take('.') && p.digits() == 0 {
			return nil, p.fail("key %q: want digits after '.'", key)
		}
		if p.take('e') || p.take('E') {
			if !p.take('+') {
				p.take('-')
			}
			if p.digits() == 0 {
				return nil, p.fail("key %q: want digits in the exponent", key)
			}
		}
	}
	return p.b[start:p.i], nil
}

// digits skips a run of decimal digits and returns its length.
func (p *editParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// word consumes the literal w when the body has it next.
func (p *editParser) word(w string) bool {
	if len(p.b)-p.i < len(w) || string(p.b[p.i:p.i+len(w)]) != w {
		return false
	}
	p.i += len(w)
	return true
}

// take consumes c when it is the next byte.
func (p *editParser) take(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (p *editParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// fail returns a 400 that names the edit being read and what was wrong, or
// the offset where the body stopped making sense.
func (p *editParser) fail(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if p.i >= len(p.b) {
		msg += " (the body ends first)"
	}
	if p.edit < 0 {
		return Errorf(400, "%s, at offset %d", msg, p.i)
	}
	return Errorf(400, "edit %d: %s", p.edit, msg)
}
