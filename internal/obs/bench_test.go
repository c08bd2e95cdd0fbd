package obs_test

import (
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// Step with each observer of this package attached, on the
// Step/Line32/FIFO traffic of internal/sim: the flight recorder on the
// event hooks (StepTraced), the metrics Meter on the step hook
// (StepMetered), the time-series Sampler (StepSampled) and the span
// tracer (StepSpanTraced). Each must stay allocation-free; its ns/op
// gap over internal/sim's Step/Line32/FIFO is its cost on the hot path.

func benchEngine(b *testing.B, ob func(e *sim.Engine)) *sim.Engine {
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	e := sim.New(g, policy.FIFO{}, adv)
	ob(e)
	e.Run(256)
	b.ReportAllocs()
	b.ResetTimer()
	return e
}

func BenchmarkStepTraced(b *testing.B) {
	e := benchEngine(b, func(e *sim.Engine) {
		e.AddEventObserver(obs.NewFlightRecorder(4096))
	})
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepMetered(b *testing.B) {
	e := benchEngine(b, func(e *sim.Engine) {
		e.AddObserver(obs.NewMeter(nil))
	})
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepSampled(b *testing.B) {
	b.Run("Line32/FIFO", func(b *testing.B) {
		e := benchEngine(b, func(e *sim.Engine) {
			obs.NewSampler(obs.SamplerConfig{Every: 4, MaxSamples: 512}).Attach(e)
		})
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

func BenchmarkStepSpanTraced(b *testing.B) {
	b.Run("Line32/FIFO", func(b *testing.B) {
		e := benchEngine(b, func(e *sim.Engine) {
			obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 16, Seed: 7}).Attach(e)
		})
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}
