package source

import "time"

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal operation
	breakerOpen                         // rejecting calls until cooldown
	breakerHalfOpen                     // one probe allowed through
)

// breaker trips after a run of consecutive failures and rejects
// further calls until a cooldown elapses, then admits a single probe:
// probe success closes the breaker, probe failure re-opens it for
// another cooldown. It is not concurrency-safe; the Ingestor confines
// each breaker to the one goroutine ingesting its source.
type breaker struct {
	threshold int           // consecutive failures to trip (>=1)
	cooldown  time.Duration // open → half-open delay
	state     breakerState
	fails     int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last tripped
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a call may proceed now, transitioning
// open → half-open when the cooldown has elapsed.
func (b *breaker) allow(now time.Time) bool {
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // closed or half-open (the probe is in flight)
		return true
	}
}

// success records a successful call, closing the breaker.
func (b *breaker) success() {
	b.state = breakerClosed
	b.fails = 0
}

// failure records a failed call, tripping the breaker when the
// consecutive-failure threshold is reached (immediately, from
// half-open).
func (b *breaker) failure(now time.Time) {
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = now
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		b.fails = 0
	}
}

// open reports whether the breaker is currently rejecting calls.
func (b *breaker) open(now time.Time) bool { return !b.allowPeek(now) }

// allowPeek is allow without the open → half-open transition.
func (b *breaker) allowPeek(now time.Time) bool {
	if b.state == breakerOpen {
		return now.Sub(b.openedAt) >= b.cooldown
	}
	return true
}
