package rational

// Pacer emits events at an exact long-run rate. A Pacer configured with
// rate r answers, for each consecutive tick, how many events are due at
// that tick, such that after t ticks exactly floor(r*t) events have been
// emitted (the canonical leaky-bucket schedule of a rate-r adversary
// stream). The zero value is a stopped pacer that never emits.
type Pacer struct {
	rate  Rat
	ticks int64 // number of ticks already consumed
	sent  int64 // events emitted so far
}

// NewPacer returns a pacer for the given rate. Negative rates panic.
func NewPacer(rate Rat) *Pacer {
	if rate.Sign() < 0 {
		panic("rational: negative pacer rate")
	}
	return &Pacer{rate: rate}
}

// Rate returns the configured rate.
func (p *Pacer) Rate() Rat { return p.rate }

// Tick advances the pacer by one tick and returns the number of events
// due at this tick: floor(r*(ticks+1)) - floor(r*ticks).
func (p *Pacer) Tick() int64 {
	p.ticks++
	due := p.rate.FloorMulInt(p.ticks)
	n := due - p.sent
	p.sent = due
	return n
}

// Emitted returns the total number of events emitted so far.
func (p *Pacer) Emitted() int64 { return p.sent }

// Ticks returns the number of ticks consumed so far.
func (p *Pacer) Ticks() int64 { return p.ticks }

// Reset restarts the pacer from zero.
func (p *Pacer) Reset() {
	p.ticks = 0
	p.sent = 0
}

// CappedPacer is a Pacer that stops after emitting a fixed budget of
// events. It is used by adversary phases of the form "inject N packets
// at rate r starting at time t0": the stream paces at r until the
// budget is exhausted and then goes silent.
type CappedPacer struct {
	Pacer
	budget int64
}

// NewCappedPacer returns a pacer emitting at the given rate until
// budget events have been emitted in total.
func NewCappedPacer(rate Rat, budget int64) *CappedPacer {
	if budget < 0 {
		budget = 0
	}
	return &CappedPacer{Pacer: *NewPacer(rate), budget: budget}
}

// Tick advances by one tick and returns the number of events due,
// truncated so the lifetime total never exceeds the budget.
func (p *CappedPacer) Tick() int64 {
	if p.sent >= p.budget {
		p.ticks++
		return 0
	}
	n := p.Pacer.Tick()
	if over := p.sent - p.budget; over > 0 {
		n -= over
		p.sent = p.budget
	}
	return n
}

// Done reports whether the budget is exhausted.
func (p *CappedPacer) Done() bool { return p.sent >= p.budget }

// Remaining returns the number of events still to be emitted.
func (p *CappedPacer) Remaining() int64 { return p.budget - p.sent }

// Budget returns the configured lifetime budget.
func (p *CappedPacer) Budget() int64 { return p.budget }
