package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzInjGroup: on any bytes, the byte-level group decode either
// declines or agrees with json.Unmarshal into []int64 on a
// four-element array.
func FuzzInjGroup(f *testing.F) {
	for _, s := range []string{
		"[1,0,1,0]", "[ 7 , 2 ,\t3,\n0 ]", "[-0,0,1,0]", "[01,0,1,0]", "[1,0,1.0,0]",
		"[1,0,1e3,0]", "[1,0,1E3,0]", "[9223372036854775807,0,1,-9223372036854775808]",
		"[9223372036854775808,0,1,0]", "[-9223372036854775809,0,1,0]",
		"[99999999999999999999,0,1,0]", "[1,0,1]", "[1,0,1,0,5]", "[1,0,1,0]x", " [1,0,1,0]",
		"[1,0,1,0] ", "[-,0,1,0]", "[1,,1,0]", "[1,0,1,0", "[]", "null", `{"t":1}`, `"x"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		gr, end, ok := parseGroup(b, 0)
		if !ok || end != len(b) {
			return
		}
		var a []int64
		if err := json.Unmarshal(b, &a); err != nil {
			t.Fatalf("parseGroup accepted %q, json.Unmarshal rejects it: %v", b, err)
		}
		if len(a) != 4 || a[0] != gr.T || a[1] != int64(gr.Route) || a[2] != gr.N || a[3] != int64(gr.Tag) {
			t.Fatalf("parseGroup(%q) = %+v, json.Unmarshal = %v", b, gr, a)
		}
	})
}

// plainReplay is ReplaySpec without its MarshalJSON: encoding/json's
// own struct encoding, one InjGroup.MarshalJSON call per group.
type plainReplay struct {
	Routes     [][]string `json:"routes"`
	Tags       []string   `json:"tags,omitempty"`
	Injections []InjGroup `json:"injections"`
}

// TestReplayMarshalMatchesStruct: ReplaySpec.MarshalJSON writes the
// bytes encoding/json writes for the struct, through the nil, empty
// and omitempty cases and strings encoding/json escapes.
func TestReplayMarshalMatchesStruct(t *testing.T) {
	groups := []InjGroup{{T: 1, Route: 0, N: 3, Tag: 1}, {T: -2, Route: 1, N: 1 << 62, Tag: 0}}
	for _, rp := range []ReplaySpec{
		{},
		{Routes: [][]string{}, Tags: []string{}, Injections: []InjGroup{}},
		{Routes: [][]string{nil, {}}, Injections: groups[:1]},
		{Routes: [][]string{{"e1", "g1.e2"}, {"#3"}}, Tags: []string{"old", "<&> ", "\xff"}, Injections: groups},
	} {
		got, err := json.Marshal(rp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plainReplay(rp))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("ReplaySpec.MarshalJSON:\n got  %s\n want %s", got, want)
		}
	}
}

// TestSourceDigestSplicesReplay: sourceDigest equals the json.Marshal
// digest on every checked-in spec, and on replay specs built to
// mislead its search for the replay block: an edge and a stream
// named after it, and a phase holding a replay block of its own.
func TestSourceDigestSplicesReplay(t *testing.T) {
	if got, _ := (&ReplaySpec{}).MarshalJSON(); string(got) != emptyReplay {
		t.Fatalf("empty ReplaySpec encodes as %s, want %s", got, emptyReplay)
	}
	for _, c := range corpusSpecs(t) {
		s, err := Parse(c.name, c.data)
		if err != nil {
			t.Fatal(err)
		}
		checkSourceDigest(t, s)
	}
	replay := &ReplaySpec{Routes: [][]string{{"e1"}}, Tags: []string{"<x>"}, Injections: []InjGroup{{T: 1, N: 2, Tag: 1}}}
	s := &Spec{
		Version: Version,
		Name:    `"replay":` + emptyReplay,
		Policy:  PolicySpec{Default: "FIFO", Edges: map[string]string{"replay": emptyReplay}},
		Adversary: AdversarySpec{Kind: "replay", Replay: replay,
			Streams: []StreamSpec{{Name: `"replay":` + emptyReplay, Route: []string{"e1"}}},
			Phases:  []PhaseSpec{{Adversary: AdversarySpec{Kind: "replay", Replay: &ReplaySpec{}}}}},
	}
	checkSourceDigest(t, s)
}

// TestCorpusSources pins the checkpoint source of every checked-in
// spec: the SHA-256 of its JSON encoding, which names the spec in
// every checkpoint, so the encoding must stay byte-identical.
// (TestCorpusEncodesToItself pins Spec.Encode on the same files.)
func TestCorpusSources(t *testing.T) {
	want := map[string]string{
		"b2.json":         "609d5f9cf28af06b6e83603af4098b3ac19accfa61a8c84b6e1ad478311e9baf",
		"e1.json":         "3f9fe8bd76283be289635f9ed877fa80074192bd80159f3495ff1e12a5a089d9",
		"e13.json":        "c289b32262f3db50b7c71df36bd592b7c0fb532e54843f6a835a01a85f371f49",
		"e14.json":        "69c614cfa762069bcec29bdab937f90ea264d7a304f3d9e04c8c3a63c9d024c6",
		"e2.json":         "60681bf6ad53531bdbb749689ef8a469f602f02f349aca7063bea665356c9a06",
		"e3.json":         "db3bdaab416a118b550aad3b73b5c471d774f192abaf89f63ddd2bb966a616f2",
		"e4.json":         "adb95775e508a148b1fb677a8ec3eb35760811e44d77f4d5ddc61b1aff710528",
		"e5.json":         "96a1dad5213a993f10103fed8eb80dec8bc0c9683c93faee4f4380881743834a",
		"e7.json":         "e41cad4f3855ffd2c1b6c979ee6730808693efa28e412b893d548fb3dad191d4",
		"e8.json":         "da9f2f608096a4f5cf412233939b080b937b622560609028e3b0858330b38548",
		"h1.json":         "33ed6e768ec5066cbec084fb4ccfd4cb163c531c11d1a576e22437e98ebb6b08",
		"quickstart.json": "ae55c64d3e4adaca7941490627152d8f5592907a2fcb5c6aaa51dbc34a20d3f2",
		"u1.json":         "50bee1f522d9b95d01b809dffdf2eaee20c75a4dfa4fefac1b91269cfa843f03",
	}
	specs := corpusSpecs(t)
	if len(specs) != len(want) {
		t.Errorf("%d specs, want %d", len(specs), len(want))
	}
	for _, c := range specs {
		s, err := Parse(c.name, c.data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.source(); got != want[c.name] {
			t.Errorf("%s: source %s, want %s", c.name, got, want[c.name])
		}
	}
}

// TestParseBuildAllocs pins the allocations of loading the E1 schedule
// (59,644 injection groups): Parse and Build make a few thousand, not
// several per group (the parent made ~764k).
func TestParseBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const measured = 2940
	var data []byte
	for _, c := range corpusSpecs(t) {
		if c.name == "e1.json" {
			data = c.data
		}
	}
	n := testing.AllocsPerRun(3, func() {
		s, err := Parse("e1.json", data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse + Build of e1.json: %.0f allocations", n)
	if n > measured*5/4 {
		t.Errorf("Parse + Build of e1.json: %.0f allocations, want <= %d (measured %d, +25%%)", n, measured*5/4, measured)
	}
}
