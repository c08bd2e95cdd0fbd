package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Error is a line-precise spec rejection: the file (as passed to
// Parse/Load), the 1-based line, the JSON path of the offending value
// and the message. Semantic messages cite the adversary package's
// Check* errors verbatim, so a spec error reads exactly like the panic
// the equivalent hand-wired constructor would raise.
type Error struct {
	File string
	Line int
	Path string
	Msg  string
}

// Error implements error: "file:line: path: msg".
func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		fmt.Fprintf(&b, "%s:", e.File)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "%d: ", e.Line)
	}
	if e.Path != "" {
		fmt.Fprintf(&b, "%s: ", e.Path)
	}
	b.WriteString(e.Msg)
	return b.String()
}

// lineAt is the 1-based line holding byte offset off of data.
func lineAt(data []byte, off int64) int {
	off = min(max(off, 0), int64(len(data)))
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

var unmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()

// shape is the JSON structure a Go type decodes from: a struct's fields
// by JSON name, or a map's or slice's element. A nil *shape accepts any
// well-formed value: scalars, interface{} fields and json.Unmarshaler
// types, whose content json.Unmarshal checks.
type shape struct {
	kind   reflect.Kind // Struct, Map or Slice (arrays too)
	fields map[string]field
	elem   *shape
}

// field is a struct field's shape and its bit in an object's set of
// fields present (every spec struct has fewer than 64 fields).
type field struct {
	bit   uint64
	shape *shape
}

// groupShape is an InjGroup's: any well-formed value. A plain group
// (parseGroup) is passed without scanning its numbers one by one, and a
// walk that checks groups decodes any other (see strictCheck).
var groupShape = &shape{}

// specShape is built once, so concurrent Parse calls (`aqt scenario
// run` fans files across workers) only read it.
var specShape = shapeOf(reflect.TypeOf(Spec{}), map[reflect.Type]*shape{})

func shapeOf(t reflect.Type, memo map[reflect.Type]*shape) *shape {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if t == reflect.TypeOf(InjGroup{}) {
		return groupShape
	}
	if s, ok := memo[t]; ok || reflect.PtrTo(t).Implements(unmarshalerType) {
		return s
	}
	s := &shape{kind: t.Kind()}
	switch s.kind {
	case reflect.Struct:
		memo[t], s.fields = s, map[string]field{}
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if sf.PkgPath != "" || name == "-" {
				continue // unexported or ignored
			}
			if name == "" {
				name = sf.Name
			}
			s.fields[name] = field{1 << len(s.fields), shapeOf(sf.Type, memo)}
		}
	case reflect.Map, reflect.Slice, reflect.Array:
		memo[t] = s
		if s.kind == reflect.Array {
			s.kind = reflect.Slice
		}
		s.elem = shapeOf(t.Elem(), memo)
	default:
		return nil
	}
	return s
}

// walker checks JSON bytes against a shape in one recursive pass that
// records nothing. It rejects what encoding/json's token Decoder
// rejects, with the Decoder's message, at the offset the Decoder had
// read to. The error path is built only on a rejection: each level of
// the recursion adds its segment on the way back up.
type walker struct {
	data   []byte
	pos    int // the Decoder's read offset: the next unread byte
	msg    string
	segs   []pathSeg // innermost first
	groups bool      // decode injection groups (strictCheck)
}

// pathSeg is an object key, or an array index when idx >= 0.
type pathSeg struct {
	key string
	idx int
}

// strictCheck validates data's structure against the Spec's JSON shape:
// well-formed JSON, no unknown or duplicate fields anywhere (encoding/json
// would match keys case-insensitively and keep the last duplicate), no
// trailing data. Rejections are positioned *Errors.
//
// With groups set it also decodes every injection group, and rejects
// the first that fails at its own position. json.Unmarshal stops at
// that group, so Parse walks with groups only to position the error of
// a json.Unmarshal that failed on one.
func strictCheck(file string, data []byte, groups bool) error {
	w := walker{data: data, groups: groups}
	if _, ok := w.peek(); !ok {
		w.msg = "unexpected end of file"
	} else if w.value(specShape) {
		if _, more := w.peek(); !more {
			return nil
		}
		w.msg = "trailing data after the spec object"
	}
	return &Error{File: file, Line: lineAt(data, int64(w.pos)), Path: w.path(), Msg: w.msg}
}

// peek skips whitespace to the next byte. At the end of the input it
// leaves pos after the last token, where the Decoder reports EOF.
func (w *walker) peek() (byte, bool) {
	i := skipSpace(w.data, w.pos)
	if i == len(w.data) {
		return 0, false
	}
	w.pos = i
	return w.data[i], true
}

func (w *walker) fail(msg string) bool {
	w.msg = msg
	return false
}

func (w *walker) badChar(c byte, context string) bool {
	return w.fail("invalid character " + quoteChar(c) + context)
}

// up adds a path segment to a rejection on its way out of a child; as
// fail returns false, `fail(msg) || up(seg)` records both.
func (w *walker) up(key string, idx int) bool {
	w.segs = append(w.segs, pathSeg{key, idx})
	return false
}

func (w *walker) path() string {
	p := ""
	for i := len(w.segs) - 1; i >= 0; i-- {
		p = childPath(p, w.segs[i])
	}
	return p
}

func childPath(p string, s pathSeg) string {
	switch {
	case s.idx >= 0:
		return p + "[" + strconv.Itoa(s.idx) + "]"
	case p == "":
		return s.key
	}
	return p + "." + s.key
}

// value checks the value starting at pos, a non-space byte.
func (w *walker) value(s *shape) bool {
	if s == groupShape {
		if _, end, ok := parseGroup(w.data, w.pos); ok {
			w.pos = end
			return true
		} else if w.groups {
			return w.group()
		}
	}
	switch c := w.data[w.pos]; c {
	case '{':
		return w.object(s)
	case '[':
		return w.array(s)
	case ']', '}', ':', ',':
		return w.badChar(c, " looking for beginning of value")
	}
	return w.scalar()
}

// scalar passes the string, number or literal at pos. Its extent is
// the quoted run, or the run of bytes a number or literal is made of,
// and json.Valid checks it without allocating. When that fails, the
// Decoder reads one value from pos: it finds a shorter scalar (the "1"
// of "1x", whose "x" the caller then rejects) or rejects the bytes with
// its message.
func (w *walker) scalar() bool {
	d, end := w.data, w.pos+1
	if d[w.pos] == '"' {
		for ; end < len(d) && d[end] != '"'; end++ {
			if d[end] == '\\' {
				end++
			}
		}
		end = min(end+1, len(d))
	} else {
		for end < len(d) && strings.IndexByte("+-.0123456789Eaeflnrstu", d[end]) >= 0 {
			end++
		}
	}
	if json.Valid(d[w.pos:end]) {
		w.pos = end
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(d[w.pos:]))
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return w.fail(err.Error())
	}
	w.pos += int(dec.InputOffset())
	return true
}

func (w *walker) object(s *shape) bool {
	var fields map[string]field
	var elem *shape
	if s != nil && s.kind == reflect.Struct {
		fields = s.fields
	} else if s != nil && s.kind == reflect.Map {
		elem = s.elem
	}
	var seen uint64              // fields present, for a struct
	var seenKeys map[string]bool // keys present, for a map or untyped object
	w.pos++
	for n := 0; ; n++ {
		c, ok := w.peek()
		switch {
		case !ok:
			return w.fail("unexpected end of file")
		case c == '}':
			w.pos++
			return true
		case n > 0 && c != ',':
			return w.badChar(c, " after object key:value pair")
		case n > 0:
			w.pos++
			if c, ok = w.peek(); !ok {
				return w.fail("unexpected end of file")
			} else if c != '"' {
				return w.badChar(c, " looking for beginning of object key string")
			}
		case c != '"':
			return w.badChar(c, "")
		}
		key, ok := w.key()
		if !ok {
			return false
		}
		f, known := fields[string(key)]
		dup := seen&f.bit != 0 || seenKeys[string(key)]
		if fields == nil {
			f.shape, known = elem, true
			if seenKeys == nil {
				seenKeys = map[string]bool{}
			}
			seenKeys[string(key)] = true
		}
		seen |= f.bit
		if dup {
			return w.fail(fmt.Sprintf("duplicate field %q", key)) || w.up(string(key), -1)
		} else if !known {
			return w.fail(fmt.Sprintf("unknown field %q", key)) || w.up(string(key), -1)
		}
		if c, ok = w.peek(); !ok {
			return w.fail("unexpected end of file") || w.up(string(key), -1)
		} else if c != ':' {
			return w.badChar(c, " after object key") || w.up(string(key), -1)
		}
		w.pos++
		if _, ok = w.peek(); !ok {
			return w.fail("unexpected end of file") || w.up(string(key), -1)
		}
		if !w.value(f.shape) {
			return w.up(string(key), -1)
		}
	}
}

// key reads the object key string at pos. Its value is its bytes, or,
// when it holds an escape or invalid UTF-8, what encoding/json
// unescapes it to.
func (w *walker) key() ([]byte, bool) {
	start := w.pos
	if !w.scalar() {
		return nil, false
	}
	raw := w.data[start:w.pos]
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw[1 : len(raw)-1], true
	}
	var k string
	_ = json.Unmarshal(raw, &k) // cannot fail: scalar read a whole string
	return []byte(k), true
}

func (w *walker) array(s *shape) bool {
	var elem *shape
	if s != nil && s.kind == reflect.Slice {
		elem = s.elem
	}
	w.pos++
	for i := 0; ; i++ {
		c, ok := w.peek()
		switch {
		case !ok:
			return w.fail("unexpected end of file")
		case c == ']':
			w.pos++
			return true
		case c == '}' && i == 0:
			return w.badChar(c, " looking for beginning of value")
		case c == '}':
			return w.badChar(c, " after array element")
		case i > 0 && c != ',':
			return w.badChar(c, " after array element") || w.up("", i)
		case i > 0:
			w.pos++
			if _, ok = w.peek(); !ok {
				return w.fail("unexpected end of file") || w.up("", i)
			}
		}
		if !w.value(elem) {
			return w.up("", i)
		}
	}
}

// group passes the injection group at pos if it decodes, and else
// rejects it there with InjGroup.UnmarshalJSON's message.
func (w *walker) group() bool {
	start := w.pos
	if !w.value(nil) {
		return false
	}
	var gr InjGroup
	if err := gr.UnmarshalJSON(w.data[start:w.pos]); err != nil {
		w.pos = start
		return w.fail(err.Error())
	}
	return true
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// lineOf positions a semantic error: the line of the deepest value on
// path present in data, found by walking up the path (cut at its last
// '.' or '[') as far as needed, e.g. an omitted field positions at its
// parent. data is a spec Parse accepted; without one (nil) the line
// is 1.
func lineOf(data []byte, path string) int {
	if data == nil {
		return 1
	}
	at := make([]int, len(path)+1) // at[k]: 1 + offset of the last value whose path is path[:k]
	w := walker{data: data}
	w.peek()
	w.find(path, "", at)
	k := len(path)
	for at[k] == 0 && k > 0 {
		k = max(strings.LastIndexAny(path[:k], ".["), 0)
	}
	return lineAt(data, int64(at[k]-1))
}

// find walks the value at pos, whose path cur is a prefix of target,
// into every child whose path also is, and records in at where each
// such value starts; it skips every other child.
func (w *walker) find(target, cur string, at []int) {
	at[len(cur)] = w.pos + 1
	open := w.data[w.pos]
	if open != '{' && open != '[' {
		w.scalar()
		return
	}
	w.pos++
	for i := 0; ; i++ {
		if c, _ := w.peek(); c == '}' || c == ']' {
			w.pos++
			return
		} else if c == ',' {
			w.pos++
			w.peek()
		}
		seg := pathSeg{idx: i}
		if open == '{' {
			key, _ := w.key()
			seg = pathSeg{key: string(key), idx: -1}
			w.peek()
			w.pos++ // ':'
			w.peek()
		}
		if p := childPath(cur, seg); strings.HasPrefix(target, p) {
			w.find(target, p, at)
		} else {
			w.value(nil)
		}
	}
}
