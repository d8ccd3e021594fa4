package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff computes retry delays: exponential doubling from DefaultBase
// with a deterministic seeded jitter in [0, 50%) of the step, capped at
// DefaultMax. Seeding makes retry schedules reproducible across runs — the
// same property the engine's fault-injection tests rely on.
type Backoff struct {
	Seed int64

	mu  sync.Mutex
	rng *rand.Rand
}

// Default backoff parameters.
const (
	DefaultBase = 10 * time.Millisecond
	DefaultMax  = 2 * time.Second
)

// Delay returns the pause before retry attempt (1-based): attempt 1 is the
// first retry after the initial failure.
func (b *Backoff) Delay(attempt int) time.Duration {
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
	b.mu.Lock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.Seed))
	}
	jitter := time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	b.mu.Unlock()
	return d + jitter
}
