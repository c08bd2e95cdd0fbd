package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"aqt/internal/scenario"
)

// corpusGlob is the checked-in scenario corpus, relative to the
// repository root.
const corpusGlob = "scenarios/*.json"

// corpusSplits is the number of checkpoints taken per spec. They are
// stratified over the run — one in each quarter, at a seed-chosen
// offset — so a seed moves where the checkpoints fall but hardly how
// much state they carry.
const corpusSplits = 4

type corpusSpec struct {
	file   string
	data   []byte
	splits []int64 // increasing steps at which the straight run is checkpointed
	want   scenario.Outcome
}

type corpusJob struct {
	specs []corpusSpec
}

// prepareCorpus reads every spec, draws its checkpoint splits from the
// seed, and runs it straight through once for the reference Outcome.
func prepareCorpus(seed int64) (job, error) {
	paths, err := filepath.Glob(corpusGlob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no specs match %s; run from the repository root", corpusGlob)
	}
	rng := rand.New(rand.NewSource(seed))
	j := &corpusJob{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.Parse(path, data)
		if err != nil {
			return nil, err
		}
		steps := spec.Run.Steps
		if steps <= corpusSplits {
			return nil, fmt.Errorf("corpus: %s runs %d steps, too few for %d splits", path, steps, corpusSplits)
		}
		built, err := scenario.Build(spec)
		if err != nil {
			return nil, err
		}
		cs := corpusSpec{file: path, data: data, want: built.Run()}
		u := rng.Float64()
		for i := 0; i < corpusSplits; i++ {
			cs.splits = append(cs.splits, 1+int64((float64(i)+u)*float64(steps-1)/corpusSplits))
		}
		j.specs = append(j.specs, cs)
	}
	return j, nil
}

// corpusBuilds are one spec's engines: the straight run, and one fresh
// build per split to restore into.
type corpusBuilds struct {
	straight *scenario.Built
	resumed  []*scenario.Built
}

// run runs one batch into b. Set-up parses every spec and builds it
// 1+corpusSplits times. The run part advances the straight build from
// split to split; at each it checkpoints through the wire format,
// restores a fresh build from the checkpoint and finishes that run,
// whose Outcome must equal the straight run's.
func (j *corpusJob) run(b *batch) {
	builds := make([]corpusBuilds, len(j.specs))
	t := time.Now()
	for i, cs := range j.specs {
		tp := time.Now()
		spec, err := scenario.Parse(cs.file, cs.data)
		b.parse += time.Since(tp)
		b.check(err == nil, "corpus/%s: parse: %v", cs.file, err)
		if err != nil {
			continue
		}
		tb := time.Now()
		for k := 0; k <= corpusSplits && err == nil; k++ {
			var bt *scenario.Built
			if bt, err = buildCopy(spec); err == nil && k == 0 {
				builds[i].straight = bt
			} else if err == nil {
				builds[i].resumed = append(builds[i].resumed, bt)
			}
		}
		b.build += time.Since(tb)
		b.check(err == nil, "corpus/%s: build: %v", cs.file, err)
	}
	b.setup = time.Since(t)

	start := time.Now()
	for i, cs := range j.specs {
		if len(builds[i].resumed) != corpusSplits {
			continue
		}
		tu := time.Now()
		a := builds[i].straight
		for k, split := range cs.splits {
			j.roundTrip(b, cs, a, builds[i].resumed[k], split)
		}
		b.units = append(b.units, ms(time.Since(tu)))
		b.counts.addEngine(a.Engine)
		b.leapSteps += a.Engine.Leaps().Steps
		b.leapWindows += a.Engine.Leaps().Windows
	}
	b.run = time.Since(start)
	b.hops = b.counts.Hops
	b.packets = b.counts.Injections
}

// roundTrip advances a to split, checkpoints it into r, finishes r and
// compares its Outcome with the straight run's.
func (j *corpusJob) roundTrip(b *batch, cs corpusSpec, a, r *scenario.Built, split int64) {
	b.engineStage(func() { runSegment(a, split-a.Engine.Now()) })
	pre, preLeaps := engineCounts(a.Engine), a.Engine.Leaps()
	var data []byte
	var err error
	b.ckptEncode += b.stage(func() {
		var cp *scenario.Checkpoint
		if cp, err = a.Checkpoint(); err == nil {
			data = cp.Encode()
		}
	})
	b.check(err == nil, "corpus/%s@%d: checkpoint: %v", cs.file, split, err)
	b.ckptBytes += int64(len(data))
	b.ckptRestore += b.stage(func() {
		var cp *scenario.Checkpoint
		if cp, err = scenario.DecodeCheckpoint(cs.file, data); err == nil {
			err = r.Restore(cp)
		}
	})
	b.check(err == nil, "corpus/%s@%d: restore: %v", cs.file, split, err)
	var got scenario.Outcome
	b.engineStage(func() { got = r.RunRemaining() })
	b.stage(func() {
		b.check(cs.want.OK(), "corpus/%s: straight run checks: %v", cs.file, cs.want.Failures)
		b.check(got.OK(), "corpus/%s@%d: resumed run checks: %v", cs.file, split, got.Failures)
		b.check(got.Snap == cs.want.Snap && got.MaxResidence == cs.want.MaxResidence,
			"corpus/%s@%d: resumed outcome %+v differs from straight %+v", cs.file, split, got.Snap, cs.want.Snap)
	})

	// The resumed engine carries the straight prefix's counters through
	// the checkpoint; it simulated only what came after the split.
	b.counts.add(engineCounts(r.Engine).since(pre))
	b.leapSteps += r.Engine.Leaps().Steps - preLeaps.Steps
	b.leapWindows += r.Engine.Leaps().Windows - preLeaps.Windows
}

// buildCopy builds a private copy of spec, so two builds share nothing
// a run mutates.
func buildCopy(spec *scenario.Spec) (*scenario.Built, error) {
	s := *spec
	return scenario.Build(&s)
}

// runSegment advances a spec's engine by n steps under its run mode.
func runSegment(b *scenario.Built, n int64) {
	switch b.Spec.Run.Mode {
	case scenario.ModeQuiet:
		b.Engine.RunQuiet(n)
	case scenario.ModeLeap:
		b.Engine.RunLeap(n)
	default:
		b.Engine.Run(n)
	}
}
