package serve

import (
	"sync"
	"time"

	"repro/internal/fault"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed lets requests through while counting failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits requests until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. The zero value is usable: Threshold
// defaults to 5 and Cooldown to 10s.
type BreakerConfig struct {
	// Threshold is the decayed failure score at which the breaker
	// trips open. Each failure adds one to the score; the score halves
	// for every Cooldown of quiet time between failures and halves on
	// every success, so only a sustained storm trips the breaker —
	// occasional degradations spread over time never accumulate.
	Threshold int
	// Cooldown is both how long the breaker stays open before
	// half-open probing and the half-life of the failure score.
	Cooldown time.Duration
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold < 1 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker with decayed failure counting. Callers
// ask Allow before the protected operation and Record the outcome
// after; while the breaker is open, Allow returns false and the
// caller is expected to take its cheap fallback path instead. Safe
// for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	score       float64 // decayed failure count
	lastFailure time.Time
	openedAt    time.Time
	probing     bool      // a half-open probe is in flight
	probeStart  time.Time // when the in-flight probe was admitted
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether the protected operation may run now. In the
// half-open state only the first caller gets true (the probe); the
// rest short-circuit until the probe's outcome is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if fault.Enabled && fault.Active(fault.SiteServeBreakerTrip) {
		b.tripLocked(now)
		return false
	}
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			b.probeStart = now
			return true
		}
		return false
	case BreakerHalfOpen:
		// The probe token is a lease, not a grant: a probe whose
		// outcome is never recorded (its caller was canceled before
		// the solver finished, so the outcome says nothing about
		// numerical health) forfeits the token after one cooldown.
		// Without the lease a single abandoned probe would pin the
		// breaker half-open forever.
		if !b.probing || now.Sub(b.probeStart) >= b.cfg.Cooldown {
			b.probing = true
			b.probeStart = now
			return true
		}
		return false
	}
	return true
}

// Record feeds the outcome of an operation that Allow admitted. A
// half-open probe success closes the breaker; a probe failure
// re-opens it for another full cooldown.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if success {
		if b.state == BreakerHalfOpen {
			b.state = BreakerClosed
			b.probing = false
			b.score = 0
			return
		}
		b.score /= 2
		return
	}
	b.decayScoreLocked(now)
	b.score++
	b.lastFailure = now
	if b.state == BreakerHalfOpen {
		b.tripLocked(now)
		return
	}
	if b.state == BreakerClosed && b.score >= float64(b.cfg.Threshold) {
		b.tripLocked(now)
	}
}

// Trip forces the breaker open now, as if a failure storm had just
// crossed the threshold: requests short-circuit for a full cooldown
// before half-open probing resumes. The engine's stuck-query watchdog
// calls it from a query's deadline timer to quarantine the solver of a
// query still running one interval past its deadline — evidence of
// pathology that must not wait for Record calls that may never come.
func (b *Breaker) Trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tripLocked(b.cfg.Now())
}

// State returns the current state (resolving an elapsed open cooldown
// to half-open, so observers see what the next Allow would).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// tripLocked opens the breaker now. Callers hold b.mu.
func (b *Breaker) tripLocked(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.probing = false
}

// decayScoreLocked halves the failure score once per Cooldown elapsed since
// the last failure, so old storms do not keep the breaker trigger-
// happy forever. Callers hold b.mu.
func (b *Breaker) decayScoreLocked(now time.Time) {
	if b.lastFailure.IsZero() {
		return
	}
	elapsed := now.Sub(b.lastFailure)
	for elapsed >= b.cfg.Cooldown && b.score > 0 {
		b.score /= 2
		elapsed -= b.cfg.Cooldown
	}
	if b.score < 1e-3 {
		b.score = 0
	}
}
