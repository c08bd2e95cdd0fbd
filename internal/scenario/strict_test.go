package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The reference below is the strict walker Parse used before the
// byte-level one: it drives encoding/json's token Decoder over the
// spec and records the line of every JSON path for compile's errors.
// It is slow (every scalar goes through Decoder.Token) but is plainly
// the Decoder's grammar, so the byte walker is held to it: the same
// inputs accepted and, on a rejection, the same *Error, except where
// the reference reports a bare "EOF" (a spec truncated inside an open
// object or array), which the byte walker words "unexpected end of
// file" like every other truncation.

type refWalker struct {
	dec    *json.Decoder
	lines  refLineIndex
	file   string
	at     map[string]int // path → line
	groups bool           // decode injection groups (refGroupCheck)
}

type refLineIndex []int64

func newRefLineIndex(data []byte) refLineIndex {
	starts := refLineIndex{0}
	for i, b := range data {
		if b == '\n' {
			starts = append(starts, int64(i+1))
		}
	}
	return starts
}

func (li refLineIndex) line(off int64) int {
	n := sort.Search(len(li), func(i int) bool { return li[i] > off })
	if n < 1 {
		return 1
	}
	return n
}

func refStrictCheck(file string, data []byte) (map[string]int, error) {
	w := &refWalker{
		dec:   json.NewDecoder(bytes.NewReader(data)),
		lines: newRefLineIndex(data),
		file:  file,
		at:    map[string]int{},
	}
	w.dec.UseNumber()
	if err := w.value("", reflect.TypeOf(Spec{})); err != nil {
		return nil, err
	}
	if _, err := w.dec.Token(); err != io.EOF {
		return nil, &Error{File: file, Line: w.lines.line(w.dec.InputOffset()),
			Msg: "trailing data after the spec object"}
	}
	return w.at, nil
}

func (w *refWalker) errf(path string, format string, args ...interface{}) error {
	return &Error{File: w.file, Line: w.lines.line(w.dec.InputOffset()),
		Path: path, Msg: fmt.Sprintf(format, args...)}
}

func (w *refWalker) value(path string, typ reflect.Type) error {
	if w.groups && typ == reflect.TypeOf(InjGroup{}) {
		var raw json.RawMessage
		if err := w.dec.Decode(&raw); err != nil {
			return w.errf(path, "%v", err)
		}
		if msg := refGroupMsg(raw); msg != "" {
			start := w.dec.InputOffset() - int64(len(raw))
			return &Error{File: w.file, Line: w.lines.line(start), Path: path, Msg: msg}
		}
		return nil
	}
	tok, err := w.dec.Token()
	if err != nil {
		if err == io.EOF {
			return w.errf(path, "unexpected end of file")
		}
		return w.errf(path, "%v", err)
	}
	w.at[path] = w.lines.line(w.dec.InputOffset())
	typ = refDerefType(typ)
	if d, ok := tok.(json.Delim); ok {
		switch d {
		case '{':
			return w.object(path, typ)
		case '[':
			return w.array(path, typ)
		}
	}
	return nil
}

func refDerefType(typ reflect.Type) reflect.Type {
	for typ != nil && typ.Kind() == reflect.Ptr {
		typ = typ.Elem()
	}
	if typ == nil || typ.Kind() == reflect.Interface ||
		reflect.PtrTo(typ).Implements(unmarshalerType) {
		return nil
	}
	return typ
}

func (w *refWalker) object(path string, typ reflect.Type) error {
	var fields map[string]reflect.Type
	var elem reflect.Type
	if typ != nil {
		switch typ.Kind() {
		case reflect.Struct:
			fields = refStructFields(typ)
		case reflect.Map:
			elem = typ.Elem()
		}
	}
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
	if _, err := w.dec.Token(); err != nil {
		return w.errf(path, "%v", err)
	}
	return nil
}

func (w *refWalker) array(path string, typ reflect.Type) error {
	var elem reflect.Type
	if typ != nil && (typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array) {
		elem = typ.Elem()
	}
	for i := 0; w.dec.More(); i++ {
		if err := w.value(fmt.Sprintf("%s[%d]", path, i), elem); err != nil {
			return err
		}
	}
	if _, err := w.dec.Token(); err != nil {
		return w.errf(path, "%v", err)
	}
	return nil
}

func refStructFields(typ reflect.Type) map[string]reflect.Type {
	f := map[string]reflect.Type{}
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.PkgPath != "" {
			continue
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
	return f
}

func refLineOf(lines map[string]int, path string) int {
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

// refGroupMsg decodes an injection group as InjGroup did before its
// byte-level fast path: a nested json.Unmarshal into []int64 and a
// length check. It returns the rejection message, or "".
func refGroupMsg(raw []byte) string {
	var a []int64
	if err := json.Unmarshal(raw, &a); err != nil {
		if e, ok := err.(*json.UnmarshalTypeError); ok {
			return fmt.Sprintf("cannot decode %s into %s", e.Value, e.Type)
		}
		return err.Error()
	}
	if len(a) != 4 {
		return fmt.Sprintf("injection group needs [t, route, n, tag], got %d elements", len(a))
	}
	return ""
}

// refGroupCheck re-walks a spec the reference accepted and returns the
// first injection group that does not decode, positioned at the line
// of its first byte with its own path (nil when every group decodes).
// json.Unmarshal stops at that group, discarding any type error it met
// before it.
func refGroupCheck(file string, data []byte) error {
	w := &refWalker{
		dec:    json.NewDecoder(bytes.NewReader(data)),
		lines:  newRefLineIndex(data),
		file:   file,
		at:     map[string]int{},
		groups: true,
	}
	w.dec.UseNumber()
	return w.value("", reflect.TypeOf(Spec{}))
}

// refParse is Parse over the reference walker, with compile's errors
// positioned by the reference's path → line map, and the intended
// deviations applied: a bare "EOF" reads "unexpected end of file", and
// an injection group that does not decode is positioned at its own
// line and path (refGroupCheck).
func refParse(file string, data []byte) error {
	lines, err := refStrictCheck(file, data)
	if err != nil {
		if se := err.(*Error); se.Msg == "EOF" {
			se.Msg = "unexpected end of file"
		}
		return err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		if err := refGroupCheck(file, data); err != nil {
			return err
		}
		li := newRefLineIndex(data)
		switch e := err.(type) {
		case *json.UnmarshalTypeError:
			return &Error{File: file, Line: li.line(e.Offset), Path: e.Field,
				Msg: fmt.Sprintf("cannot decode %s into %s", e.Value, e.Type)}
		case *json.SyntaxError:
			return &Error{File: file, Line: li.line(e.Offset), Msg: e.Error()}
		}
		return &Error{File: file, Line: 1, Msg: err.Error()}
	}
	if _, err := compile(ctx{file: file}, &s); err != nil {
		se := err.(*Error)
		se.Line = refLineOf(lines, se.Path)
		return se
	}
	return nil
}

// sameAsRef reports how Parse and the reference disagree on data (nil
// when they agree).
func sameAsRef(data []byte) error {
	_, got := Parse("t.json", data)
	want := refParse("t.json", data)
	if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Parse = %#v\nreference = %#v", got, want)
	}
	return nil
}

// TestStrictRejections pins File, Line, Path and Msg for malformed
// input, and holds each to the reference.
func TestStrictRejections(t *testing.T) {
	const head = "{\n  \"version\": 1,\n"
	const groups = `  "adversary": {"replay": {"injections": [` + "\n    [1, 0, 1, 0],\n"
	cases := []struct {
		name, data string
		want       Error
	}{
		{"empty input", "", Error{Line: 1, Msg: "unexpected end of file"}},
		{"truncated in the root object", head,
			Error{Line: 2, Msg: "unexpected end of file"}},
		{"truncated in a nested object", head + `  "topology": {"kind": "ring"`,
			Error{Line: 3, Path: "topology", Msg: "unexpected end of file"}},
		{"truncated in an array", head + `  "run": {"observers": ["meter"`,
			Error{Line: 3, Path: "run.observers", Msg: "unexpected end of file"}},
		{"truncated after a comma", head + `  "run": {"observers": ["meter",`,
			Error{Line: 3, Path: "run.observers[1]", Msg: "unexpected end of file"}},
		{"truncated after a colon", head + `  "name":`,
			Error{Line: 3, Path: "name", Msg: "unexpected end of file"}},
		{"truncated in a string", head + `  "name": "t`,
			Error{Line: 3, Path: "name", Msg: "unexpected EOF"}},
		{"bad literal", head + "  \"topology\": {\"stitch\": tru,\n",
			Error{Line: 3, Path: "topology.stitch", Msg: "invalid character ',' in literal true (expecting 'e')"}},
		{"missing colon", head + "  \"name\" \"t\"\n}",
			Error{Line: 3, Path: "name", Msg: `invalid character '"' after object key`}},
		{"missing comma", head + "  \"name\": \"t\"\n  \"comment\": \"c\"\n}",
			Error{Line: 4, Msg: `invalid character '"' after object key:value pair`}},
		{"raw newline in a string", head + "  \"name\": \"a\nb\"\n}",
			Error{Line: 3, Path: "name", Msg: `invalid character '\n' in string literal`}},
		{"bad escape", head + `  "name": "a\q"` + "\n}",
			Error{Line: 3, Path: "name", Msg: "invalid character 'q' in string escape code"}},
		{"bad key escape", head + `  "n\ame": 1` + "\n}",
			Error{Line: 3, Msg: "invalid character 'a' in string escape code"}},
		{"leading garbage", "x{}", Error{Line: 1, Msg: "invalid character 'x' looking for beginning of value"}},
		{"empty array element", head + `  "run": {"observers": [1,,2]}}`,
			Error{Line: 3, Path: "run.observers[1]", Msg: "invalid character ',' looking for beginning of value"}},
		{"trailing comma in an array", head + `  "run": {"observers": ["meter",]}}`,
			Error{Line: 3, Path: "run.observers[1]", Msg: "invalid character ']' looking for beginning of value"}},
		{"trailing comma in an object", head + "  \"name\": \"t\",\n}",
			Error{Line: 4, Msg: "invalid character '}' looking for beginning of object key string"}},
		{"brace closes an array", head + `  "seeds": [}`,
			Error{Line: 3, Path: "seeds", Msg: "invalid character '}' looking for beginning of value"}},
		{"bracket closes an object", "{]", Error{Line: 1, Msg: "invalid character ']'"}},
		{"second object", "{} {}", Error{Line: 1, Msg: "trailing data after the spec object"}},
		{"second object on its own line", "{}\n{}", Error{Line: 2, Msg: "trailing data after the spec object"}},
		{"closing bracket after the object", "{}]", Error{Line: 1, Msg: "trailing data after the spec object"}},
		{"stray bracket", "{}\n\n]", Error{Line: 3, Msg: "trailing data after the spec object"}},
		{"escaped duplicate key", head + `  "\u0076ersion": 1}`,
			Error{Line: 3, Path: "version", Msg: `duplicate field "version"`}},
		{"unknown key in a phase", head + "  \"adversary\": {\"phases\": [{}, {\"untill\": 3}]}}",
			Error{Line: 3, Path: "adversary.phases[1].untill", Msg: `unknown field "untill"`}},
		{"duplicate key in a map", head + `  "policy": {"edges": {"e1": "LIS", "e1": "NTG"}}}`,
			Error{Line: 3, Path: "policy.edges.e1", Msg: `duplicate field "e1"`}},
		{"fraction in an injection group", head + groups + "    [2, 0, 1.5, 0]]}}}",
			Error{Line: 5, Path: "adversary.replay.injections[1]", Msg: "cannot decode number 1.5 into int64"}},
		{"three-element injection group", head + groups + "    [2, 0, 1]]}}}",
			Error{Line: 5, Path: "adversary.replay.injections[1]", Msg: "injection group needs [t, route, n, tag], got 3 elements"}},
		{"injection group spanning lines", head + groups + "    [2,\n 0, 1, 0, 5]]}}}",
			Error{Line: 5, Path: "adversary.replay.injections[1]", Msg: "injection group needs [t, route, n, tag], got 5 elements"}},
		{"injection group that is not an array", head + groups + `    {"t": 2}]}}}`,
			Error{Line: 5, Path: "adversary.replay.injections[1]", Msg: "cannot decode object into []int64"}},
		{"injection group in a phase", head + `  "adversary": {"phases": [{"adversary": {"replay": {"injections": [` +
			"\n    [1, 0, 1, 0], [2, 0, 1, 9223372036854775808]]}}}]}}",
			Error{Line: 4, Path: "adversary.phases[0].adversary.replay.injections[1]",
				Msg: "cannot decode number 9223372036854775808 into int64"}},
		{"injection group after a type error", head + `  "name": 5,` + "\n" + groups + "    [2, 0, 1e0, 0]]}}}",
			Error{Line: 6, Path: "adversary.replay.injections[1]", Msg: "cannot decode number 1e0 into int64"}},
		{"unknown field after an injection group", head + groups + "    [2, 0, 1]]}}, \"nmae\": 1}",
			Error{Line: 5, Path: "nmae", Msg: `unknown field "nmae"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.json", []byte(c.data))
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("got %v, want an *Error", err)
			}
			c.want.File = "t.json"
			if *se != c.want {
				t.Errorf("got  %#v\nwant %#v", *se, c.want)
			}
			if err := sameAsRef([]byte(c.data)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStrictMatchesReference holds Parse to the reference on every
// prefix and one-byte edit of a small spec (FuzzScenarioLoad's seeds
// cover the checked-in specs whole).
func TestStrictMatchesReference(t *testing.T) {
	base, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "quickstart.json"))
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for i := range base {
		inputs = append(inputs, base[:i])
		for _, b := range []byte(`"\,:]}{[0e.-` + "\n") {
			edit := bytes.Clone(base)
			edit[i] = b
			inputs = append(inputs, edit)
		}
	}
	for _, data := range inputs {
		if err := sameAsRef(data); err != nil {
			t.Fatalf("%v\ninput:\n%s", err, data)
		}
	}
}

// TestSemanticErrorLines: a compile error finds its line by re-walking
// the input — the value itself, or the deepest ancestor present, even
// through keys holding '.'.
func TestSemanticErrorLines(t *testing.T) {
	chain := strings.Replace(validBase, `"topology": {"kind": "ring", "n": 4}`,
		`"topology": {"kind": "chain", "n": 2, "m": 2}`, 1)
	for _, c := range []struct {
		name, data, path string
		line             int
	}{
		{"dotted map key", strings.Replace(chain, `"policy": {"default": "FIFO"}`,
			`"policy": {"default": "FIFO",
    "edges": {"g1.e1": "LIS",
      "g1.e2": "fifo"}}`, 1), "policy.edges.g1.e2", 7},
		{"omitted field at its parent", strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary":
    {"kind": "random"}`, 1), "adversary.random", 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.json", []byte(c.data))
			var se *Error
			if !errors.As(err, &se) || se.Path != c.path || se.Line != c.line {
				t.Errorf("got %v, want %s at line %d", err, c.path, c.line)
			}
			if err := sameAsRef([]byte(c.data)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStrictCheckAllocs pins that the walk records nothing: checking
// the 1.5 MB E1 schedule allocates a handful of times, not once per
// value (the token-Decoder walk made ~2.45M allocations).
func TestStrictCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "e1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := strictCheck("e1.json", data, false); err != nil {
			t.Fatal(err)
		}
	}); n > 256 {
		t.Errorf("strict walk of e1.json: %.0f allocations, want <= 256", n)
	}
}

// benchSets are the spec sets the Parse and Build benchmarks time:
// the E1 schedule, and the whole scenarios/ corpus.
func benchSets(b *testing.B) []benchSet {
	corpus := corpusSpecs(b)
	var e1 []corpusFile
	for _, c := range corpus {
		if c.name == "e1.json" {
			e1 = append(e1, c)
		}
	}
	return []benchSet{{"e1", e1}, {"corpus", corpus}}
}

type benchSet struct {
	name  string
	files []corpusFile
}

// BenchmarkParse times Parse (strict walk, decode, compile) on the E1
// schedule and on the whole scenarios/ corpus.
func BenchmarkParse(b *testing.B) {
	for _, set := range benchSets(b) {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range set.files {
					if _, err := Parse(c.name, c.data); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBuild times Build (compile, schedule expansion, engine and
// observers, seeding) of parsed specs, as perfbench's corpus workload
// builds each spec once per checkpoint split.
func BenchmarkBuild(b *testing.B) {
	for _, set := range benchSets(b) {
		specs := make([]*Spec, len(set.files))
		for i, c := range set.files {
			var err error
			if specs[i], err = Parse(c.name, c.data); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range specs {
					if _, err := Build(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
