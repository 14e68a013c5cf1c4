package interactive

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/happy"
)

// SimulateUser answers feedback rounds on behalf of a user with the
// given hidden weight vector, displaying with show (normally s.Show),
// until the recommendation bound drops below target or maxRounds
// elapse. It returns the final recommendation and bound.
func SimulateUser(s *Session, show func(size int) ([]int, error), hidden geom.Vector, displaySize, maxRounds int, target float64) (int, float64, error) {
	for round := 0; round < maxRounds; round++ {
		rec, bound, err := s.Recommend()
		if err != nil {
			return -1, 0, err
		}
		if bound <= target {
			return rec, bound, nil
		}
		shown, err := show(displaySize)
		if err != nil {
			return -1, 0, err
		}
		best, bestU := 0, math.Inf(-1)
		for i, idx := range shown {
			if u := hidden.Dot(s.pts[idx]); u > bestU {
				best, bestU = i, u
			}
		}
		if err := s.Choose(best); err != nil {
			return -1, 0, err
		}
	}
	rec, bound, err := s.Recommend()
	return rec, bound, err
}

// randomShow is the uninformed display baseline an informed Show must
// beat: distinct happy-point candidates drawn with a deterministic
// xorshift64* generator, installed as the session's display so Choose
// accepts the answer.
func randomShow(s *Session) func(size int) ([]int, error) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x := state
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		state = x
		return x * 0x2545f4914f6cdd1d
	}
	return func(size int) ([]int, error) {
		if size < 2 {
			return nil, ErrBadDisplay
		}
		if size > len(s.cand) {
			size = len(s.cand)
		}
		display := make([]int, 0, size)
		seen := map[int]bool{}
		for len(display) < size {
			i := s.cand[int(next()%uint64(len(s.cand)))]
			if !seen[i] {
				seen[i] = true
				display = append(display, i)
			}
		}
		s.display = display
		return append([]int(nil), display...), nil
	}
}

func testData(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		var sum float64
		for j := range p {
			p[j] = 0.05 + rng.ExpFloat64()
			sum += p[j]
		}
		scale := (0.8 + 0.4*rng.Float64()) / sum
		for j := range p {
			p[j] = math.Min(1, math.Max(0.01, p[j]*scale))
		}
		pts[i] = p
	}
	for j := 0; j < d; j++ {
		maxv := 0.0
		for _, p := range pts {
			maxv = math.Max(maxv, p[j])
		}
		for _, p := range pts {
			p[j] /= maxv
		}
	}
	return pts
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewSession([]geom.Vector{{1, 1}, {1}}); err == nil {
		t.Fatal("ragged accepted")
	}
	if _, err := NewSession([]geom.Vector{{0, 1}}); err == nil {
		t.Fatal("zero coordinate accepted")
	}
}

func TestShowChooseProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSession(testData(rng, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Choose(0); err != ErrNotShowing {
		t.Fatalf("choose before show: %v", err)
	}
	if _, err := s.Show(1); err != ErrBadDisplay {
		t.Fatalf("display size 1: %v", err)
	}
	shown, err := s.Show(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shown) != 3 {
		t.Fatalf("shown %d", len(shown))
	}
	if err := s.Choose(5); err == nil {
		t.Fatal("out-of-range choice accepted")
	}
	if err := s.Choose(1); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != 1 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
	// A second Choose without a Show must fail.
	if err := s.Choose(0); err != ErrNotShowing {
		t.Fatalf("double choose: %v", err)
	}
}

// TestFeedbackShrinksUncertainty: each round must not increase the
// recommendation's regret bound, and typically shrinks it.
func TestFeedbackShrinksUncertainty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := testData(rng, 100, 3)
	s, err := NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	hidden := geom.Vector{0.5, 0.3, 0.2}
	_, bound0, err := s.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	prev := bound0
	for round := 0; round < 8; round++ {
		shown, err := s.Show(3)
		if err != nil {
			t.Fatal(err)
		}
		best, bestU := 0, math.Inf(-1)
		for i, idx := range shown {
			if u := hidden.Dot(pts[idx]); u > bestU {
				best, bestU = i, u
			}
		}
		if err := s.Choose(best); err != nil {
			t.Fatal(err)
		}
		_, bound, err := s.Recommend()
		if err != nil {
			t.Fatal(err)
		}
		if bound > prev+1e-9 {
			t.Fatalf("round %d: bound rose from %v to %v", round, prev, bound)
		}
		prev = bound
	}
	if prev > bound0 {
		t.Fatalf("no overall progress: %v → %v", bound0, prev)
	}
}

// TestSimulationConverges: for a random hidden utility the simulated
// session reaches a small regret bound, and the recommended tuple's
// true regret for the hidden utility is within that bound.
func TestSimulationConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		d := 2 + rng.Intn(3)
		pts := testData(rng, 120, d)
		s, err := NewSession(pts)
		if err != nil {
			t.Fatal(err)
		}
		hidden := make(geom.Vector, d)
		var norm float64
		for j := range hidden {
			hidden[j] = 0.1 + rng.Float64()
			norm += hidden[j] * hidden[j]
		}
		hidden = hidden.Scale(1 / math.Sqrt(norm))

		rec, bound, err := SimulateUser(s, s.Show, hidden, 4, 40, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if bound > 0.25 {
			t.Fatalf("trial %d (d=%d): bound %v did not converge", trial, d, bound)
		}
		// True regret of the recommendation for the hidden utility.
		bestU := math.Inf(-1)
		for _, p := range pts {
			if u := hidden.Dot(p); u > bestU {
				bestU = u
			}
		}
		trueRegret := 1 - hidden.Dot(pts[rec])/bestU
		if trueRegret > bound+1e-9 {
			t.Fatalf("trial %d: true regret %v exceeds reported bound %v", trial, trueRegret, bound)
		}
	}
}

func TestEstimateRecoversUtilityDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := testData(rng, 150, 3)
	s, err := NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	hidden := geom.Vector{0.7, 0.5, 0.2}
	hidden, _ = hidden.Normalize()
	if _, _, err := SimulateUser(s, s.Show, hidden, 4, 25, 0.02); err != nil {
		t.Fatal(err)
	}
	est, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The estimate should correlate with the hidden direction far
	// better than a uniform guess would.
	cos := est.Dot(hidden)
	if cos < 0.85 {
		t.Fatalf("estimate %v poorly aligned with hidden %v (cos %v)", est, hidden, cos)
	}
}

func TestCandidatesAreHappyPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := testData(rng, 80, 3)
	s, err := NewSession(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := happy.Compute(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cand) == 0 || !reflect.DeepEqual(s.cand, want) {
		t.Fatalf("candidates %v, want the happy points %v", s.cand, want)
	}
}

// TestStrategiesConverge: both displays make progress; Show's
// incomparability rule needs no more rounds than the random baseline
// to reach the same bound on this fixture.
func TestStrategiesConverge(t *testing.T) {
	hidden := geom.Vector{0.55, 0.35, 0.10}
	hidden, _ = hidden.Normalize()
	roundsFor := func(random bool) int {
		rng := rand.New(rand.NewSource(7)) // same data per display
		pts := testData(rng, 150, 3)
		s, err := NewSession(pts)
		if err != nil {
			t.Fatal(err)
		}
		show := s.Show
		if random {
			show = randomShow(s)
		}
		if _, _, err := SimulateUser(s, show, hidden, 4, 30, 0.03); err != nil {
			t.Fatal(err)
		}
		return s.Rounds()
	}
	inc := roundsFor(false)
	rnd := roundsFor(true)
	t.Logf("rounds to 3%%: incomparable=%d random=%d", inc, rnd)
	if inc > rnd {
		t.Fatalf("incomparable strategy (%d rounds) worse than random (%d)", inc, rnd)
	}
	if inc > 30 {
		t.Fatalf("incomparable did not converge within budget")
	}
}

func TestRandomStrategyDisplaysDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, err := NewSession(testData(rng, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	shown, err := randomShow(s)(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range shown {
		if seen[i] {
			t.Fatalf("duplicate display entry %d", i)
		}
		seen[i] = true
	}
}
