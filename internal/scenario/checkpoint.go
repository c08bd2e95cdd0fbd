// Scenario-level checkpoint/restore. A checkpoint is sim's replay
// document with the spec as its source: restoring builds the same spec
// fresh and replays the prefix, so every observer the spec configures
// (window validator, meter, sampler, span tracer) sees it and no
// observer state is serialized.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"aqt/internal/sim"
)

// Checkpoint is sim's replay checkpoint document; its Source is the
// SHA-256 of the spec.
type Checkpoint = sim.Checkpoint

// source is the SHA-256 of the spec's JSON encoding, computed once per
// build.
func (b *Built) source() string {
	if b.src == "" {
		b.src = sourceDigest(b.Spec)
	}
	return b.src
}

// emptyReplay is the encoding of ReplaySpec{}.
const emptyReplay = `{"routes":null,"injections":null}`

// sourceDigest returns sim.SourceDigest(json.Marshal(spec)) without
// letting json.Marshal scan a replay block twice: encoding/json
// compacts what a json.Marshaler returns in a pass of its own, which
// for a recorded schedule costs more than the rest of the build. So
// the spec is encoded with an empty replay block in its place, and the
// hash takes the bytes around that block's encoding with the block's
// own ReplaySpec.MarshalJSON output, compact already, in between. The
// first `"replay":` key followed by an object is the top-level
// adversary's: topology and policy precede it, and strings cannot
// hold an unescaped quote.
func sourceDigest(spec *Spec) string {
	rp := spec.Adversary.Replay
	if rp == nil {
		data, _ := json.Marshal(spec) // no floats, no failing marshalers: cannot fail
		return sim.SourceDigest(data)
	}
	shallow := *spec
	shallow.Adversary.Replay = &ReplaySpec{}
	data, _ := json.Marshal(&shallow)
	const key = `"replay":`
	at := bytes.Index(data, []byte(key+emptyReplay)) + len(key)
	replay, _ := rp.MarshalJSON()
	h := sha256.New()
	h.Write(data[:at])
	h.Write(replay)
	h.Write(data[at+len(emptyReplay):])
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint names the built scenario's current state, recording the
// spec's run mode for the replay. The engine must be between steps.
func (b *Built) Checkpoint() (*Checkpoint, error) {
	return b.checkpoint(b.Spec.Run.Mode)
}

func (b *Built) checkpoint(mode string) (*Checkpoint, error) {
	if mode == "" {
		mode = ModeStep
	}
	return b.Engine.Checkpoint(b.source(), mode)
}

// DecodeCheckpoint parses and validates a checkpoint document. Every
// rejection is a positioned *Error (file:path: msg). Whether it fits a
// particular spec is checked by Built.Restore.
func DecodeCheckpoint(file string, data []byte) (*Checkpoint, error) {
	cp, err := sim.DecodeCheckpoint(data)
	if err != nil {
		if ce, ok := err.(*sim.CheckpointError); ok {
			return nil, &Error{File: file, Path: ce.Path, Msg: ce.Msg}
		}
		return nil, &Error{File: file, Msg: err.Error()}
	}
	return cp, nil
}

// Restore brings b, freshly built and not yet run, to the checkpointed
// step of the same spec by replaying the prefix in the recorded mode.
// On error b should be discarded.
func (b *Built) Restore(cp *Checkpoint) error {
	if cp.Step > b.Spec.Run.Steps {
		return fmt.Errorf("scenario checkpoint: step %d is beyond the spec's %d steps", cp.Step, b.Spec.Run.Steps)
	}
	if err := b.Engine.Restore(cp, b.source()); err != nil {
		return fmt.Errorf("scenario %q: %w", b.Spec.Name, err)
	}
	return nil
}

// RunCheckpointed runs the spec's configured steps under mode (same
// values as RunMode) in segments of `every` steps, invoking save with
// a fresh checkpoint after each completed segment (including the final
// one). It starts from the engine's current step, so a restored build
// finishes only the remaining steps. The execution is identical to
// RunMode modulo leap-window boundaries at the segment seams.
func (b *Built) RunCheckpointed(mode string, every int64, save func(cp *Checkpoint, step int64) error) (Outcome, error) {
	if every < 1 {
		return Outcome{}, fmt.Errorf("scenario: checkpoint interval %d < 1", every)
	}
	if mode == "" {
		mode = ModeStep
	}
	steps := b.Spec.Run.Steps
	for done := b.Engine.Now(); done < steps; {
		seg := min(every, steps-done)
		if err := b.Engine.RunMode(mode, seg); err != nil {
			return Outcome{}, fmt.Errorf("scenario: %w", err)
		}
		done += seg
		cp, err := b.checkpoint(mode)
		if err != nil {
			return Outcome{}, err
		}
		if save != nil {
			if err := save(cp, done); err != nil {
				return Outcome{}, err
			}
		}
	}
	return b.outcome(mode), nil
}

// RunRemaining finishes a restored run: it executes the spec's
// configured steps minus the engine's current step under the spec's
// mode, then evaluates checks exactly as Run does.
func (b *Built) RunRemaining() Outcome {
	return b.runMode(b.Spec.Run.Mode, max(b.Spec.Run.Steps-b.Engine.Now(), 0))
}
