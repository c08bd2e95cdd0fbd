package rational

import (
	"math"
	"math/big"
	"testing"
)

// TestCappedPacerSingleTickOvershoot covers the truncation branch of
// CappedPacer.Tick: with rate 7 and budget 5 the very first tick owes
// 7 events, which must be clipped to the 5-event budget.
func TestCappedPacerSingleTickOvershoot(t *testing.T) {
	p := NewCappedPacer(FromInt(7), 5)
	if got := p.Tick(); got != 5 {
		t.Fatalf("first tick emitted %d, want 5", got)
	}
	if !p.Done() {
		t.Error("pacer should be done after clipping to budget")
	}
	if p.Emitted() != 5 {
		t.Errorf("Emitted = %d, want 5", p.Emitted())
	}
	if p.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", p.Remaining())
	}
	// Exhausted pacers keep counting ticks but never emit again.
	for i := 0; i < 3; i++ {
		if got := p.Tick(); got != 0 {
			t.Fatalf("post-budget tick emitted %d", got)
		}
	}
	if p.Ticks() != 4 {
		t.Errorf("Ticks = %d, want 4", p.Ticks())
	}
	if p.Emitted() != 5 {
		t.Errorf("Emitted after silence = %d, want 5", p.Emitted())
	}
}

// TestCappedPacerMidStreamOvershoot clips a later tick: rate 3,
// budget 5 emits 3, then 2 (not 3), then silence.
func TestCappedPacerMidStreamOvershoot(t *testing.T) {
	p := NewCappedPacer(FromInt(3), 5)
	if got := p.Tick(); got != 3 {
		t.Fatalf("tick 1 emitted %d, want 3", got)
	}
	if p.Done() {
		t.Error("not done at 3/5")
	}
	if got := p.Tick(); got != 2 {
		t.Fatalf("tick 2 emitted %d, want 2 (clipped from 3)", got)
	}
	if !p.Done() || p.Emitted() != 5 {
		t.Errorf("Done=%v Emitted=%d, want true/5", p.Done(), p.Emitted())
	}
	if got := p.Tick(); got != 0 {
		t.Errorf("tick 3 emitted %d, want 0", got)
	}
}

// TestPacerLongRunExact ticks pacers whose denominators sit near
// MaxInt64, where frac*t and acc+frac overflow int64, for millions of
// ticks and checks the cumulative count against floor(r*t) computed in
// big integers.
func TestPacerLongRunExact(t *testing.T) {
	const max = math.MaxInt64
	rates := []Rat{
		New(max-1, max),
		New(1, max),
		New(max/3, max),
		New(max, max-1),
		New(1<<62+1, 1<<62),
		New(3, 7),
		FromInt(2),
	}
	ticks := int64(3_000_000)
	if testing.Short() {
		ticks = 300_000
	}
	for _, r := range rates {
		p := NewPacer(r)
		var total int64
		num, den := big.NewInt(r.num), big.NewInt(r.den)
		for i := int64(1); i <= ticks; i++ {
			total += p.Tick()
			if i%(ticks/10) != 0 && i != 1 {
				continue
			}
			want := new(big.Int).Mul(num, big.NewInt(i))
			want.Div(want, den) // Euclidean: floor for nonnegative operands
			if !want.IsInt64() || total != want.Int64() || p.Emitted() != total {
				t.Fatalf("rate %v after %d ticks: emitted %d (Emitted %d), want %v", r, i, total, p.Emitted(), want)
			}
		}
	}
}

// TestPacerZeroValueAndReset: the zero Pacer never emits, and Reset
// replays the same schedule from the start.
func TestPacerZeroValueAndReset(t *testing.T) {
	var z Pacer
	for i := 0; i < 10; i++ {
		if z.Tick() != 0 {
			t.Fatal("zero pacer emitted")
		}
	}
	p := NewPacer(New(5, 7))
	var first []int64
	for i := 0; i < 20; i++ {
		first = append(first, p.Tick())
	}
	p.Reset()
	for i, want := range first {
		if got := p.Tick(); got != want {
			t.Fatalf("tick %d after Reset = %d, want %d", i+1, got, want)
		}
	}
}
