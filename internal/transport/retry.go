package transport

import "time"

// retryPolicy bounds how hard an endpoint works to deliver one frame:
// per-hop dial and write timeouts so a black-holed peer cannot stall
// the sender indefinitely, and capped exponential backoff between
// attempts so a flapping peer is retried without being hammered.
type retryPolicy struct {
	// maxAttempts is the total number of delivery attempts per frame
	// (first try included).
	maxAttempts int
	// baseBackoff is the pause before the first retry; each further
	// retry doubles it.
	baseBackoff time.Duration
	// maxBackoff caps the exponential growth.
	maxBackoff time.Duration
	// dialTimeout bounds each TCP dial.
	dialTimeout time.Duration
	// writeTimeout bounds each frame write.
	writeTimeout time.Duration
}

// defaultRetryPolicy is every endpoint's policy, sized to the
// wall-clock runtime's phase gaps: three attempts spanning well under
// the slack between two phases of a 400 ms round.
var defaultRetryPolicy = retryPolicy{
	maxAttempts:  3,
	baseBackoff:  10 * time.Millisecond,
	maxBackoff:   160 * time.Millisecond,
	dialTimeout:  time.Second,
	writeTimeout: time.Second,
}

// backoff returns the pause before retry number retry (1-based):
// baseBackoff·2^(retry-1), capped at maxBackoff.
func (p retryPolicy) backoff(retry int) time.Duration {
	if retry < 1 {
		return 0
	}
	b := p.baseBackoff
	for i := 1; i < retry; i++ {
		b *= 2
		if b >= p.maxBackoff {
			return p.maxBackoff
		}
	}
	if b > p.maxBackoff {
		return p.maxBackoff
	}
	return b
}
