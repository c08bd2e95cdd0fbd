package stability

import (
	"bytes"
	"encoding/json"
	"fmt"

	"aqt/internal/obs"
	"aqt/internal/sim"
)

// ProbeCheckpointVersion is the probe checkpoint document version.
// Version 2 carries an obs.Sampler state; earlier versions are
// rejected.
const ProbeCheckpointVersion = 2

// ProbeCheckpoint is a paused stability probe: the engine state, the
// sampler's backlog series and exact peak, and enough run parameters to
// finish the probe exactly as Run would have. Long threshold
// bisections persist these between probe evaluations and survive
// process restarts without losing mid-probe work.
type ProbeCheckpoint struct {
	Version   int              `json:"version"`
	Engine    *sim.Checkpoint  `json:"engine"`
	Sampler   obs.SamplerState `json:"sampler"`
	Remaining int64            `json:"remaining"`
	Growth    float64          `json:"growth"`
}

// PauseRun starts the probe Run(eng, steps, stride, growthThreshold)
// would execute, but stops after pauseAt steps and captures a
// checkpoint instead of classifying. The engine must be fresh, as Run
// requires; pauseAt must lie in [1, steps].
func PauseRun(eng *sim.Engine, steps, stride, pauseAt int64, growthThreshold float64) (*ProbeCheckpoint, error) {
	if pauseAt < 1 || pauseAt > steps {
		return nil, fmt.Errorf("stability: pauseAt %d outside [1, %d]", pauseAt, steps)
	}
	sam := newProbeSampler(stride)
	sam.Attach(eng)
	eng.RunLeap(pauseAt)
	ec, err := eng.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &ProbeCheckpoint{
		Version:   ProbeCheckpointVersion,
		Engine:    ec,
		Sampler:   sam.CheckpointState(),
		Remaining: steps - pauseAt,
		Growth:    growthThreshold,
	}, nil
}

// ResumeRun restores pc onto eng — freshly constructed the same way
// the paused probe's engine was — finishes the remaining steps and
// classifies. For a deterministic probe the report is identical to the
// uninterrupted Run (modulo leap-window accounting, which Run does not
// report).
func ResumeRun(eng *sim.Engine, pc *ProbeCheckpoint) (RunReport, error) {
	if pc.Version != ProbeCheckpointVersion {
		return RunReport{}, fmt.Errorf("stability: unsupported probe checkpoint version %d (want %d)", pc.Version, ProbeCheckpointVersion)
	}
	if pc.Engine == nil {
		return RunReport{}, fmt.Errorf("stability: probe checkpoint missing engine state")
	}
	if pc.Remaining < 0 {
		return RunReport{}, fmt.Errorf("stability: negative remaining step count %d", pc.Remaining)
	}
	sam := newProbeSampler(1) // stride overwritten by RestoreState
	sam.Attach(eng)
	if err := eng.Restore(pc.Engine); err != nil {
		return RunReport{}, err
	}
	if err := sam.RestoreState(pc.Sampler); err != nil {
		return RunReport{}, err
	}
	eng.RunLeap(pc.Remaining)
	return report(eng, sam, pc.Growth), nil
}

// Encode renders the probe checkpoint as deterministic indented JSON
// with a trailing newline.
func (pc *ProbeCheckpoint) Encode() []byte {
	data, err := json.MarshalIndent(pc, "", "  ")
	if err != nil {
		panic("stability: probe checkpoint encode: " + err.Error())
	}
	return append(data, '\n')
}

// DecodeProbeCheckpoint parses and validates a persisted probe
// checkpoint. The embedded engine document is structurally validated
// here; spec-level fit is checked by ResumeRun against the engine it
// is given.
func DecodeProbeCheckpoint(data []byte) (*ProbeCheckpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pc ProbeCheckpoint
	if err := dec.Decode(&pc); err != nil {
		return nil, fmt.Errorf("stability: probe checkpoint: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("stability: probe checkpoint: trailing data")
	}
	if pc.Version != ProbeCheckpointVersion {
		return nil, fmt.Errorf("stability: unsupported probe checkpoint version %d (want %d)", pc.Version, ProbeCheckpointVersion)
	}
	if pc.Engine == nil {
		return nil, fmt.Errorf("stability: probe checkpoint missing engine state")
	}
	if err := pc.Engine.Validate(); err != nil {
		return nil, err
	}
	if pc.Remaining < 0 {
		return nil, fmt.Errorf("stability: negative remaining step count %d", pc.Remaining)
	}
	return &pc, nil
}
