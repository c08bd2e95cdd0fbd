package adversary

import (
	"errors"

	"aqt/internal/sim"
)

// errNoState is what the retired state-checkpoint methods return:
// checkpoints replay from the spec and carry no adversary state.
var errNoState = errors.New("adversary: checkpoints replay from the spec and carry no adversary state")

// noState gives Sequence and RandomWR the two methods of
// sim.CheckpointableAdversary, kept only so that perfbench's timing
// wrappers, which forward them, compile. The engine never calls them.
type noState struct{}

// CheckpointState returns errNoState.
func (noState) CheckpointState() (sim.AdversaryState, error) { return sim.AdversaryState{}, errNoState }

// RestoreState returns errNoState.
func (noState) RestoreState(*sim.Engine, sim.AdversaryState) error { return errNoState }
