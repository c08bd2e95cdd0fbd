// Checkpoint/restore by replay. The model of §2 is deterministic: given
// the graph, the policy table, the buffer configuration and the
// adversary program, the state at step t is a function of t. So a
// checkpoint stores no state at all, only what names it:
//
//	version  the document version (CheckpointVersion)
//	source   the SHA-256 of whatever defines the engine (a scenario
//	         spec, or `aqt sim`'s engine-defining flags)
//	mode     the run mode that reached the step: step, quiet or leap
//	step     the engine clock at the checkpoint
//	digest   a SHA-256 of the engine state at that step (Engine.Digest)
//
// Restore takes a freshly built engine of the same source, runs the
// prefix in the recorded mode and compares digests. Observers attached
// to the fresh engine see the prefix exactly as they would have in a
// straight run, so a resumed run's telemetry equals a straight run's
// without any observer carrying checkpoint state.
//
// The cost of a restore is the cost of the prefix. It loses to a state
// encoding when a run moves many hops before the split but holds few
// packets at it.
//
// Decoding is hardened for hostile input (FuzzCheckpointLoad in
// internal/scenario): every rejection is a *CheckpointError and neither
// DecodeCheckpoint nor Restore ever panics.
package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CheckpointVersion is the current document version. Versions 1–3
// serialized the engine, adversary and observer state; they are
// rejected.
const CheckpointVersion = 4

// Run modes: the three engine loops (Run, RunQuiet, RunLeap), which
// produce identical executions and differ only in what OnStep
// observers see and in speed.
const (
	ModeStep  = "step"
	ModeQuiet = "quiet"
	ModeLeap  = "leap"
)

// maxCheckpointBytes bounds a document before it is decoded; a real
// one is about 250 bytes.
const maxCheckpointBytes = 4096

// CheckpointError is a checkpoint rejection: Path names the offending
// field ("digest"), Msg says what is wrong with it.
type CheckpointError struct {
	Path string
	Msg  string
}

// Error implements error: "checkpoint: path: msg".
func (e *CheckpointError) Error() string {
	if e.Path == "" {
		return "checkpoint: " + e.Msg
	}
	return "checkpoint: " + e.Path + ": " + e.Msg
}

func cperrf(path, format string, args ...interface{}) error {
	return &CheckpointError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Checkpoint names an engine state: the engine built from Source, run
// Step steps in Mode, has the state whose digest is Digest.
type Checkpoint struct {
	Version int    `json:"version"`
	Source  string `json:"source"`
	Mode    string `json:"mode"`
	Step    int64  `json:"step"`
	Digest  string `json:"digest"`
}

// SourceDigest is the hex SHA-256 of data, the Source of checkpoints
// of an engine that data defines.
func SourceDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Checkpoint names the engine's current state. source identifies what
// built the engine (see SourceDigest) and mode the loop that ran it.
// It fails if called mid-step (from an event observer hook).
func (e *Engine) Checkpoint(source, mode string) (*Checkpoint, error) {
	if e.midStep {
		return nil, cperrf("", "Checkpoint called mid-step (from an observer hook)")
	}
	c := &Checkpoint{Version: CheckpointVersion, Source: source, Mode: mode, Step: e.now, Digest: e.Digest()}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Restore brings e, a freshly built and never-run engine of the same
// source, to the checkpointed state: it runs the prefix in the recorded
// mode, so attached observers see it as they would in a straight run,
// and compares the state digest with the recorded one. On error e
// should be discarded.
func (e *Engine) Restore(c *Checkpoint, source string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Source != source {
		return cperrf("source", "checkpoint of source %s, restoring into %s", c.Source, source)
	}
	if e.started || e.now != 0 {
		return cperrf("", "restore target must not have run (now=%d)", e.now)
	}
	_ = e.RunMode(c.Mode, c.Step) // Validate admitted the mode
	if d := e.Digest(); d != c.Digest {
		return cperrf("digest", "state at step %d replays to %s, checkpoint records %s", c.Step, d, c.Digest)
	}
	return nil
}

// RunMode runs n steps in the given mode ("" is ModeStep).
func (e *Engine) RunMode(mode string, n int64) error {
	switch mode {
	case "", ModeStep:
		e.Run(n)
	case ModeQuiet:
		e.RunQuiet(n)
	case ModeLeap:
		e.RunLeap(n)
	default:
		return fmt.Errorf("unknown run mode %q (step|quiet|leap)", mode)
	}
	return nil
}

// Digest is the hex SHA-256 of exactly the state adversary.SameExecution
// compares: the Snapshot with Stats.Nanos zeroed, MaxResidence(true),
// and every edge's queue in order, each packet as (ID, Pos, InjectedAt,
// ArrivedAt, Tag, Route). Two engines have equal digests iff
// SameExecution finds them equal (up to hash collisions).
func (e *Engine) Digest() string {
	s := e.Snap()
	st := s.Stats
	var b []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	put(s.Now, s.Injected, s.Absorbed, s.Dropped, s.TotalQueued, int64(s.MaxQueueLen), int64(s.MaxQueueAt),
		st.Steps, st.Sends, st.Receives, st.Injections, st.Drops, st.HeapSkips, st.HeapCompactions, st.HeapRebuilds,
		e.MaxResidence(true))
	h := sha256.New()
	for eid := range e.buffers {
		q := &e.buffers[eid]
		put(int64(q.Len()))
		for i := 0; i < q.Len(); i++ {
			p := q.At(i)
			put(int64(p.ID), int64(p.Pos), p.InjectedAt, p.ArrivedAt, int64(len(p.Tag)))
			b = append(b, p.Tag...)
			put(int64(len(p.Route)))
			for _, r := range p.Route {
				put(int64(r))
			}
		}
		if len(b) >= 1<<12 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Encode renders the checkpoint as indented JSON with a trailing
// newline; fields marshal in declaration order, so the bytes are a pure
// function of the checkpoint.
func (c *Checkpoint) Encode() []byte {
	b, _ := json.MarshalIndent(c, "", "  ") // five plain fields: cannot fail
	return append(b, '\n')
}

// DecodeCheckpoint parses and validates a checkpoint document. Every
// rejection is a *CheckpointError; hostile input never panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > maxCheckpointBytes {
		return nil, cperrf("", "%d bytes exceed the %d-byte document limit", len(data), maxCheckpointBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		// A document of an older version fails on its retired fields;
		// name the version instead.
		var v struct{ Version int }
		if json.Unmarshal(data, &v) == nil && v.Version != CheckpointVersion {
			return nil, cperrf("version", "unsupported checkpoint version %d (want %d)", v.Version, CheckpointVersion)
		}
		return nil, cperrf("", "offset %d: %v", dec.InputOffset(), err)
	}
	if dec.More() {
		return nil, cperrf("", "trailing data after the checkpoint object")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the document on its own: version, mode, a
// non-negative step and the two digests' shape.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return cperrf("version", "unsupported checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	if !isDigest(c.Source) {
		return cperrf("source", "want 64 lowercase hex digits, got %q", c.Source)
	}
	switch c.Mode {
	case ModeStep, ModeQuiet, ModeLeap:
	default:
		return cperrf("mode", "unknown run mode %q (step|quiet|leap)", c.Mode)
	}
	if c.Step < 0 {
		return cperrf("step", "negative step %d", c.Step)
	}
	if !isDigest(c.Digest) {
		return cperrf("digest", "want 64 lowercase hex digits, got %q", c.Digest)
	}
	return nil
}

// isDigest reports whether s is a hex SHA-256 as SourceDigest and
// Digest render it.
func isDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// AdversaryState and CheckpointableAdversary are kept only so that
// perfbench, which wraps adversaries in timing shims, compiles: its
// wrappers forward these two methods. The engine never calls them, and
// no adversary here implements them with anything but an error.
type AdversaryState struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// CheckpointableAdversary: see AdversaryState. Kept only for perfbench;
// the engine never calls it.
type CheckpointableAdversary interface {
	Adversary
	CheckpointState() (AdversaryState, error)
	RestoreState(e *Engine, st AdversaryState) error
}
