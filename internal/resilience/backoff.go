package resilience

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Default backoff parameters.
const (
	DefaultBase = 10 * time.Millisecond
	DefaultMax  = 2 * time.Second
)

// Backoff returns the pause before retry attempt (1-based; attempt 1 is
// the first retry after the initial failure) of the work named key: the
// step doubles from DefaultBase up to DefaultMax, plus a jitter in
// [0, 50%) of the step drawn from a hash of (key, attempt). The delay is a
// function of its arguments alone, so a job's retry schedule is the same
// whichever worker runs it and whatever else retries beside it.
func Backoff(key string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := DefaultBase
	for i := 1; i < attempt && d < DefaultMax; i++ {
		d *= 2
	}
	if d > DefaultMax {
		d = DefaultMax
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	return d + time.Duration(h.Sum64()%uint64(d/2))
}
