package c3

import (
	"math"
	"testing"
)

func TestScoreFormula(t *testing.T) {
	// Hand-computed: resp=100, svc=10, q=2, out=1, n=2, m=1:
	// qHat = 1 + 1*2 + 2 = 5; score = 100 - 2*10 + 125*10 = 1330.
	if got := Score(100, 10, 2, 1, 2, 1); got != 1330 {
		t.Fatalf("Score = %v, want 1330", got)
	}
	// Service-time floor at 1 ns.
	if got := Score(0, 0, 0, 0, 1, 1); got != 1 {
		t.Fatalf("Score floor = %v, want 1", got)
	}
	// Concurrency divides the queue terms.
	if a, b := Score(0, 8, 4, 0, 1, 1), Score(0, 8, 4, 0, 1, 4); b >= a {
		t.Fatalf("higher concurrency did not lower score: %v vs %v", a, b)
	}
}

// TestScorerMatchesStrategyFormula pins the Scorer to the exact formula
// the simulation strategy uses, so the sim and the real client can never
// drift apart.
func TestScorerMatchesStrategyFormula(t *testing.T) {
	sc := NewScorer(1, ScorerOptions{Alpha: 0.9, Clients: 18, Concurrency: 4})
	sc.OnSend(0, 3)
	sc.Observe(0, 1, 5000, 800, 7)
	// After first observation: EWMAs snap to the sample, outstanding 2.
	want := Score(5000, 800, 7, 2, 18, 4)
	if got := sc.ScoreOf(0); got != want {
		t.Fatalf("ScoreOf = %v, want %v", got, want)
	}
	// Second observation folds with alpha.
	sc.Observe(0, 1, 9000, 1000, 3)
	want = Score(0.9*5000+0.1*9000, 0.9*800+0.1*1000, 0.9*7+0.1*3, 1, 18, 4)
	if got := sc.ScoreOf(0); math.Abs(got-want) > 1e-6 {
		t.Fatalf("folded ScoreOf = %v, want %v", got, want)
	}
}

func TestScorerBestPrefersFastReplica(t *testing.T) {
	sc := NewScorer(3, ScorerOptions{})
	// Replica 0 slow, 1 fast, 2 medium.
	for i := 0; i < 20; i++ {
		sc.Observe(0, 0, 50_000_000, 2_000_000, 10)
		sc.Observe(1, 0, 1_000_000, 100_000, 0)
		sc.Observe(2, 0, 10_000_000, 500_000, 3)
	}
	if best := sc.Best(nil); best != 1 {
		t.Fatalf("Best = %d, want 1", best)
	}
	// Eligibility filter excludes the winner.
	best := sc.Best(func(r int) bool { return r != 1 })
	if best != 2 {
		t.Fatalf("filtered Best = %d, want 2", best)
	}
	if best := sc.Best(func(int) bool { return false }); best != -1 {
		t.Fatalf("empty Best = %d, want -1", best)
	}
}

func TestScorerOutstandingBalancesColdStart(t *testing.T) {
	sc := NewScorer(2, ScorerOptions{Clients: 4})
	sc.OnSend(0, 5)
	if best := sc.Best(nil); best != 1 {
		t.Fatalf("cold-start Best = %d, want the idle replica 1", best)
	}
	sc.OnError(0, 5)
	if got := sc.Outstanding(0); got != 0 {
		t.Fatalf("Outstanding after OnError = %d, want 0", got)
	}
	// OnError must not fold latency data: both replicas still cold-equal.
	if a, b := sc.ScoreOf(0), sc.ScoreOf(1); a != b {
		t.Fatalf("OnError perturbed score: %v vs %v", a, b)
	}
}

func TestScorerReset(t *testing.T) {
	sc := NewScorer(2, ScorerOptions{})
	// Replica 0 accumulates bad feedback and stranded outstanding work
	// (an OnSend whose Observe never arrives — a dead connection).
	sc.OnSend(0, 8)
	sc.Observe(0, 2, 50_000_000, 2_000_000, 9)
	if sc.Outstanding(0) != 6 {
		t.Fatalf("Outstanding = %d, want 6", sc.Outstanding(0))
	}
	sc.Reset(0)
	if sc.Outstanding(0) != 0 {
		t.Fatalf("Outstanding after Reset = %d, want 0", sc.Outstanding(0))
	}
	// Reset state ranks like a never-observed replica.
	if a, b := sc.ScoreOf(0), sc.ScoreOf(1); a != b {
		t.Fatalf("Reset replica scores %v, untouched cold replica %v", a, b)
	}
}

func TestScorerSpread(t *testing.T) {
	sc := NewScorer(3, ScorerOptions{})
	// Replica 0 serves a request in 300 µs, replicas 1 and 2 in 100 µs;
	// replica 2 already has two requests in flight.
	sc.Observe(0, 0, 5_000_000, 300_000, 0)
	sc.Observe(1, 0, 1_000_000, 100_000, 0)
	sc.Observe(2, 0, 1_000_000, 100_000, 0)
	sc.OnSend(2, 2)
	picks := make([]int, 6)
	if !sc.Spread(picks, nil) {
		t.Fatal("Spread found no replica")
	}
	// Finish times (µs) of the next request: 300 on replica 0, 100 per
	// queued request on 1, and 300 on 2 at first. Replica 1 takes three
	// (100, 200, then 300, a tie its lower score wins), 2 one at 300 (a
	// tie with 0 that 2 wins on score), 0 one at 300, and 1 the last at
	// 400 (a tie with 2 it wins on score).
	want := []int{1, 1, 1, 2, 0, 1}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v, want %v", picks, want)
		}
	}
	if sc.Outstanding(0) != 0 || sc.Outstanding(1) != 0 || sc.Outstanding(2) != 2 {
		t.Fatal("Spread recorded outstanding requests")
	}
	if !sc.Spread(picks, func(r int) bool { return r == 0 }) {
		t.Fatal("Spread found no eligible replica")
	}
	for _, p := range picks {
		if p != 0 {
			t.Fatalf("picks = %v, want all on the only eligible replica 0", picks)
		}
	}
	if sc.Spread(picks, func(int) bool { return false }) {
		t.Fatal("Spread succeeded with no eligible replica")
	}

	// A replica with no feedback counts as fast as the fastest one, so a
	// revived replica shares the load instead of taking all of it.
	cold := NewScorer(2, ScorerOptions{})
	cold.Observe(0, 0, 1_000_000, 100_000, 0)
	picks = make([]int, 4)
	if !cold.Spread(picks, nil) {
		t.Fatal("Spread found no replica")
	}
	if want := []int{1, 0, 1, 0}; picks[0] != want[0] || picks[1] != want[1] || picks[2] != want[2] || picks[3] != want[3] {
		t.Fatalf("cold picks = %v, want %v", picks, want)
	}
}
