package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
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

// lineIndex maps byte offsets to 1-based line numbers.
type lineIndex []int64

func newLineIndex(data []byte) lineIndex {
	starts := lineIndex{0}
	for i, b := range data {
		if b == '\n' {
			starts = append(starts, int64(i+1))
		}
	}
	return starts
}

func (li lineIndex) line(off int64) int {
	// First line start strictly after off, minus one.
	n := sort.Search(len(li), func(i int) bool { return li[i] > off })
	if n < 1 {
		return 1
	}
	return n
}

var unmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()

// walker walks the JSON token stream against the Spec's type
// structure, recording the line of every path and rejecting unknown
// object fields at their position.
type walker struct {
	dec   *json.Decoder
	lines lineIndex
	file  string
	at    map[string]int // path → line
}

// strictCheck validates data's structure against root's JSON shape:
// well-formed JSON, no unknown fields anywhere, no trailing data. It
// returns the path → line map used to position later semantic errors.
// Types implementing json.Unmarshaler (and interface{} fields) accept
// any well-formed subtree.
func strictCheck(file string, data []byte, root reflect.Type) (map[string]int, error) {
	w := &walker{
		dec:   json.NewDecoder(bytes.NewReader(data)),
		lines: newLineIndex(data),
		file:  file,
		at:    map[string]int{},
	}
	w.dec.UseNumber()
	if err := w.value("", root); err != nil {
		return nil, err
	}
	if _, err := w.dec.Token(); err != io.EOF {
		return nil, &Error{File: file, Line: w.lines.line(w.dec.InputOffset()),
			Msg: "trailing data after the spec object"}
	}
	return w.at, nil
}

func (w *walker) errf(path string, format string, args ...interface{}) error {
	return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
		Path: path, Msg: fmt.Sprintf(format, args...)}
}

// value consumes one JSON value at path, expected to decode into typ
// (nil = accept anything).
func (w *walker) value(path string, typ reflect.Type) error {
	tok, err := w.dec.Token()
	if err != nil {
		if err == io.EOF {
			return w.errf(path, "unexpected end of file")
		}
		return w.errf(path, "%v", err)
	}
	w.at[path] = w.lines.line(w.dec.InputOffset())
	typ = derefType(typ)
	if d, ok := tok.(json.Delim); ok {
		switch d {
		case '{':
			return w.object(path, typ)
		case '[':
			return w.array(path, typ)
		}
	}
	return nil // scalar; type mismatches surface via json.Unmarshal below
}

// derefType unwraps pointers and turns wildcard-ish types into nil.
func derefType(typ reflect.Type) reflect.Type {
	for typ != nil && typ.Kind() == reflect.Ptr {
		typ = typ.Elem()
	}
	if typ == nil || typ.Kind() == reflect.Interface ||
		reflect.PtrTo(typ).Implements(unmarshalerType) {
		return nil
	}
	return typ
}

func (w *walker) object(path string, typ reflect.Type) error {
	var fields map[string]reflect.Type
	var elem reflect.Type
	if typ != nil {
		switch typ.Kind() {
		case reflect.Struct:
			fields = structFields(typ)
		case reflect.Map:
			elem = typ.Elem()
		}
	}
	// Duplicate keys are rejected here because encoding/json silently
	// resolves them last-wins at Unmarshal time — the first occurrence
	// would vanish without a trace, and the at[path] line map would
	// point semantic errors at the wrong occurrence.
	var seen map[string]bool
	for w.dec.More() {
		tok, err := w.dec.Token()
		if err != nil {
			return w.errf(path, "%v", err)
		}
		key, _ := tok.(string)
		childPath := key
		if path != "" {
			childPath = path + "." + key
		}
		if seen[key] {
			return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
				Path: childPath, Msg: fmt.Sprintf("duplicate field %q", key)}
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		var childType reflect.Type
		switch {
		case fields != nil:
			ft, ok := fields[key]
			if !ok {
				return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
					Path: childPath, Msg: fmt.Sprintf("unknown field %q", key)}
			}
			childType = ft
		case elem != nil:
			childType = elem
		}
		if err := w.value(childPath, childType); err != nil {
			return err
		}
	}
	if _, err := w.dec.Token(); err != nil { // consume '}'
		return w.errf(path, "%v", err)
	}
	return nil
}

func (w *walker) array(path string, typ reflect.Type) error {
	var elem reflect.Type
	if typ != nil && (typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array) {
		elem = typ.Elem()
	}
	for i := 0; w.dec.More(); i++ {
		if err := w.value(fmt.Sprintf("%s[%d]", path, i), elem); err != nil {
			return err
		}
	}
	if _, err := w.dec.Token(); err != nil { // consume ']'
		return w.errf(path, "%v", err)
	}
	return nil
}

var fieldCache = map[reflect.Type]map[string]reflect.Type{}

// structFields maps JSON field names to field types for a struct type.
// The cache is populated once per type at first use; Parse runs are
// single-goroutine per call but the cache itself is only mutated under
// lazy initialization of a handful of spec types, so prebuild them.
func structFields(typ reflect.Type) map[string]reflect.Type {
	if f, ok := fieldCache[typ]; ok {
		return f
	}
	f := map[string]reflect.Type{}
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.PkgPath != "" {
			continue // unexported
		}
		name := sf.Name
		if tag := sf.Tag.Get("json"); tag != "" {
			if comma := strings.IndexByte(tag, ','); comma >= 0 {
				tag = tag[:comma]
			}
			if tag == "-" {
				continue
			}
			if tag != "" {
				name = tag
			}
		}
		f[name] = sf.Type
	}
	fieldCache[typ] = f
	return f
}

// init prebuilds the field cache for every spec type so concurrent
// Parse calls (`aqt scenario run` fans files across workers) never race
// on the map.
func init() {
	var seed func(t reflect.Type)
	seen := map[reflect.Type]bool{}
	seed = func(t reflect.Type) {
		t = derefType(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for name, ft := range structFields(t) {
				_ = name
				seed(ft)
			}
		case reflect.Slice, reflect.Array, reflect.Map:
			seed(t.Elem())
		}
	}
	seed(reflect.TypeOf(Spec{}))
}

// lineOf resolves the best-known line for a JSON path, walking up the
// path when the exact node was not present in the file (e.g. a
// semantic error about an omitted field positions at its parent).
func lineOf(lines map[string]int, path string) int {
	for p := path; ; {
		if l, ok := lines[p]; ok {
			return l
		}
		cut := strings.LastIndexAny(p, ".[")
		if cut < 0 {
			break
		}
		p = p[:cut]
	}
	if l, ok := lines[""]; ok {
		return l
	}
	return 1
}
