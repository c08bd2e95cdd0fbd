// Scenario-level checkpoint/restore: one document wrapping the engine
// checkpoint together with the states of every observer the spec
// configured (window validator, meter, sampler, span tracer). The spec
// file is the single source of truth for everything a checkpoint does
// NOT carry — topology, policy table, buffer config, adversary
// program — so restore means: Build the same spec fresh, then apply
// the checkpoint; a name fingerprint plus the engine's own fingerprint
// checks refuse obvious mismatches.
//
// Decoding is hardened for hostile input (FuzzCheckpointLoad): every
// rejection is a positioned *Error and neither DecodeCheckpoint nor
// Built.Restore ever panics.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"aqt/internal/adversary"
	"aqt/internal/obs"
	"aqt/internal/sim"
)

// CheckpointVersion is the scenario checkpoint document version.
// Version 2 dropped the "recorder" field (that observer now checkpoints
// as "sampler"); version 3 dropped the per-packet "latency" list and
// its "has_latency" flag (latency now lives in the meter's fixed-size
// histogram). Older documents are rejected.
const CheckpointVersion = 3

// Checkpoint is a paused scenario run: the engine state plus every
// configured observer's state. Observer fields are present exactly
// when the spec configures the observer.
type Checkpoint struct {
	Version  int                  `json:"version"`
	Scenario string               `json:"scenario"`
	Engine   *sim.Checkpoint      `json:"engine"`
	Window   adversary.UsageState `json:"window,omitempty"`
	Meter    *obs.MeterState      `json:"meter,omitempty"`
	Sampler  *obs.SamplerState    `json:"sampler,omitempty"`
	Spans    *obs.SpanState       `json:"spans,omitempty"`
}

// Checkpoint extracts the built scenario's complete run state. The
// engine must be between steps (not inside an observer hook) and its
// adversary checkpointable — every adversary the compiler can emit is.
func (b *Built) Checkpoint() (*Checkpoint, error) {
	ec, err := b.Engine.Checkpoint()
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Version:  CheckpointVersion,
		Scenario: b.Spec.Name,
		Engine:   ec,
	}
	if b.Window != nil {
		cp.Window = b.Window.UsageState()
	}
	if b.Meter != nil {
		st := b.Meter.CheckpointState()
		cp.Meter = &st
	}
	if b.Sampler != nil {
		st := b.Sampler.CheckpointState()
		cp.Sampler = &st
	}
	if b.Spans != nil {
		st := b.Spans.CheckpointState()
		cp.Spans = &st
	}
	return cp, nil
}

// Encode renders the checkpoint as deterministic indented JSON with a
// trailing newline (struct fields marshal in declaration order).
func (cp *Checkpoint) Encode() []byte {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		panic("scenario: checkpoint encode: " + err.Error())
	}
	return append(data, '\n')
}

// DecodeCheckpoint parses and structurally validates a scenario
// checkpoint. Every rejection is a positioned *Error (file:path: msg;
// checkpoints are machine-written, so there is no line map). Semantic
// validation against a particular spec happens in Built.Restore.
func DecodeCheckpoint(file string, data []byte) (*Checkpoint, error) {
	cerr := func(path, format string, args ...interface{}) error {
		return &Error{File: file, Path: path, Msg: fmt.Sprintf(format, args...)}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc Checkpoint
	if err := dec.Decode(&doc); err != nil {
		return nil, cerr("", "offset %d: %v", dec.InputOffset(), err)
	}
	if dec.More() {
		return nil, cerr("", "trailing data after the checkpoint object")
	}
	if doc.Version != CheckpointVersion {
		return nil, cerr("version", "unsupported checkpoint version %d (want %d)", doc.Version, CheckpointVersion)
	}
	if doc.Scenario == "" {
		return nil, cerr("scenario", "missing scenario name")
	}
	if doc.Engine == nil {
		return nil, cerr("engine", "missing engine state")
	}
	if err := doc.Engine.Validate(); err != nil {
		if ce, ok := err.(*sim.CheckpointError); ok {
			return nil, cerr("engine."+ce.Path, "%s", ce.Msg)
		}
		return nil, cerr("engine", "%v", err)
	}
	return &doc, nil
}

// Restore applies a checkpoint to b, which must be freshly built (not
// yet run) from the same spec the checkpoint was taken of. On error
// the build should be discarded: the engine may be partially restored.
func (b *Built) Restore(cp *Checkpoint) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("scenario checkpoint: unsupported version %d (want %d)", cp.Version, CheckpointVersion)
	}
	if cp.Scenario != b.Spec.Name {
		return fmt.Errorf("scenario checkpoint: taken of %q, restoring into %q", cp.Scenario, b.Spec.Name)
	}
	if cp.Engine == nil {
		return fmt.Errorf("scenario checkpoint: missing engine state")
	}
	if len(cp.Window) > 0 && b.Window == nil {
		return fmt.Errorf("scenario checkpoint: window state present but spec configures no window validator")
	}
	if (cp.Meter != nil) != (b.Meter != nil) {
		return fmt.Errorf("scenario checkpoint: meter state present=%v but spec configures meter=%v",
			cp.Meter != nil, b.Meter != nil)
	}
	if (cp.Sampler != nil) != (b.Sampler != nil) {
		return fmt.Errorf("scenario checkpoint: sampler state present=%v but spec configures sampler=%v",
			cp.Sampler != nil, b.Sampler != nil)
	}
	if (cp.Spans != nil) != (b.Spans != nil) {
		return fmt.Errorf("scenario checkpoint: span state present=%v but spec configures spans=%v",
			cp.Spans != nil, b.Spans != nil)
	}
	if err := b.Engine.Restore(cp.Engine); err != nil {
		return err
	}
	if b.Window != nil {
		if err := b.Window.RestoreUsage(cp.Window); err != nil {
			return err
		}
	}
	if cp.Meter != nil {
		if err := b.Meter.RestoreState(*cp.Meter); err != nil {
			return err
		}
	}
	if cp.Sampler != nil {
		if err := b.Sampler.RestoreState(*cp.Sampler); err != nil {
			return err
		}
	}
	if cp.Spans != nil {
		if err := b.Spans.RestoreState(*cp.Spans); err != nil {
			return err
		}
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
		seg := every
		if left := steps - done; seg > left {
			seg = left
		}
		switch mode {
		case ModeStep:
			b.Engine.Run(seg)
		case ModeQuiet:
			b.Engine.RunQuiet(seg)
		case ModeLeap:
			b.Engine.RunLeap(seg)
		default:
			return Outcome{}, fmt.Errorf("scenario: unknown run mode %q", mode)
		}
		done += seg
		cp, err := b.Checkpoint()
		if err != nil {
			return Outcome{}, err
		}
		if save != nil {
			if err := save(cp, done); err != nil {
				return Outcome{}, err
			}
		}
	}
	out := Outcome{
		Mode:         mode,
		Snap:         b.Engine.Snap(),
		Leaps:        b.Engine.Leaps(),
		MaxResidence: b.Engine.MaxResidence(true),
	}
	out.Snap.Stats.Nanos = 0
	out.Failures = b.evalChecks()
	return out, nil
}

// RunRemaining finishes a restored run: it executes the spec's
// configured steps minus the engine's current step under the spec's
// mode, then evaluates checks exactly as Run does.
func (b *Built) RunRemaining() Outcome {
	mode := b.Spec.Run.Mode
	if mode == "" {
		mode = ModeStep
	}
	left := b.Spec.Run.Steps - b.Engine.Now()
	if left < 0 {
		left = 0
	}
	switch mode {
	case ModeStep:
		b.Engine.Run(left)
	case ModeQuiet:
		b.Engine.RunQuiet(left)
	case ModeLeap:
		b.Engine.RunLeap(left)
	default:
		panic(fmt.Sprintf("scenario: unknown run mode %q", mode))
	}
	out := Outcome{
		Mode:         mode,
		Snap:         b.Engine.Snap(),
		Leaps:        b.Engine.Leaps(),
		MaxResidence: b.Engine.MaxResidence(true),
	}
	out.Snap.Stats.Nanos = 0
	out.Failures = b.evalChecks()
	return out
}
