// Package backoff is the one exponential-backoff-with-jitter schedule
// shared by the router's re-admission probes and the adserver client's
// retries: a mean that doubles from a base up to a cap, scaled by a
// multiplicative jitter draw and clamped to the cap.
package backoff

import (
	"time"

	"repro/internal/stats"
)

// Schedule is the doubling-plus-jitter delay rule.
type Schedule struct {
	// Base is the mean of the first delay; each later attempt doubles
	// the mean, capped at Cap.
	Base time.Duration
	// Cap bounds every delay, jitter included.
	Cap time.Duration
	// Jitter scales the mean by a factor uniform in [1-Jitter, 1+Jitter).
	Jitter float64
}

// Delay returns the delay for attempt (0 for the first) given u, a
// uniform draw in [0, 1): the mean Base<<attempt (Cap once that
// overflows or passes Cap) times 1-Jitter+2·Jitter·u, clamped to Cap.
func (s Schedule) Delay(attempt int, u float64) time.Duration {
	mean := s.Base << attempt
	if attempt >= 62 || mean > s.Cap || mean <= 0 {
		mean = s.Cap
	}
	d := time.Duration(float64(mean) * ((1 - s.Jitter) + 2*s.Jitter*u))
	if d > s.Cap || d < 0 {
		d = s.Cap
	}
	return d
}

// Backoff hands out a seeded Schedule one attempt at a time. The
// sequence is a pure function of (seed, index), so a chaos run's timing
// is reproducible, and jitter keeps members that fail together from
// retrying in lockstep.
type Backoff struct {
	Schedule

	rng     *stats.RNG
	attempt int
}

// New builds a schedule with jitter factor [0.5, 1.5), seeded by
// (seed, index). A non-positive base falls back to 50ms, and a cap below
// the base is raised to it.
func New(seed uint64, index int, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{
		Schedule: Schedule{Base: base, Cap: cap, Jitter: 0.5},
		rng:      stats.NewRNG(seed ^ (uint64(index)+1)*0x9e3779b97f4a7c15),
	}
}

// Next returns the next delay and advances the attempt count.
func (b *Backoff) Next() time.Duration {
	d := b.Delay(b.attempt, b.rng.Float64())
	b.attempt++
	return d
}

// Attempts returns how many delays have been handed out.
func (b *Backoff) Attempts() int { return b.attempt }

// Reset rewinds the doubling (after a member has proven healthy)
// without reseeding the jitter stream.
func (b *Backoff) Reset() { b.attempt = 0 }
