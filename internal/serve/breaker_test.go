package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: cooldown, Now: clk.now}), clk
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after 3 failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	b, clk := testBreaker(2, time.Second)
	b.Record(false)
	b.Record(false)
	if b.Allow() {
		t.Fatal("breaker should be open")
	}
	clk.advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown %v, want half-open", b.State())
	}
	// Exactly one probe gets through.
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
}

// TestBreakerHalfOpenProbeLeaseExpires pins the probe-lease rule: a
// probe whose outcome is never recorded (its caller was canceled
// mid-solve) must not pin the breaker half-open forever — after one
// cooldown the token is forfeited and the next caller may probe.
func TestBreakerHalfOpenProbeLeaseExpires(t *testing.T) {
	b, clk := testBreaker(2, time.Second)
	b.Record(false)
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// The probe is abandoned: no Record ever arrives.
	if b.Allow() {
		t.Fatal("second probe allowed while the lease is live")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("expired probe lease not reissued")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after reissued probe success %v, want closed", b.State())
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := testBreaker(2, time.Second)
	b.Record(false)
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a request")
	}
	// And the next cooldown yields another probe.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("want closed after successful second probe, got %v", b.State())
	}
}

// Failures spread far apart must never trip the breaker: the score
// halves every cooldown of quiet time.
func TestBreakerFailureScoreDecays(t *testing.T) {
	b, clk := testBreaker(3, time.Second)
	for i := 0; i < 20; i++ {
		if !b.Allow() {
			t.Fatalf("breaker tripped on slow failure drip at %d", i)
		}
		b.Record(false)
		clk.advance(3 * time.Second) // score decays to ~1/8 before the next failure
	}
	if b.State() != BreakerClosed {
		t.Fatalf("slow drip opened the breaker: %v", b.State())
	}
}

// Successes halve the score too, so mixed traffic keeps it closed.
func TestBreakerSuccessesDecayScore(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 30; i++ {
		if !b.Allow() {
			t.Fatalf("breaker tripped on alternating traffic at %d", i)
		}
		b.Record(i%2 == 0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("alternating traffic opened the breaker: %v", b.State())
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
