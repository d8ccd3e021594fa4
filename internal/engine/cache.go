package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Key derives the content-addressed cache key for a job: a stable hash of
// the job's semantic identity — flow kind, top function, caller scope
// (kernel size preset or input-content hash), the directives' normal form
// (flow.Directives.Key), and the target's cost-model parameters
// (hls.Target.Canon). Two jobs with equal keys are assumed to synthesize
// identical reports, so labels, build closures and specs deliberately do
// not participate.
func Key(job Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s|top=%s|scope=%s|%s|%s|verify=%t",
		job.Kind, job.Top, job.CacheScope, job.Directives.Key(), job.Target.Canon(),
		job.VerifySemantics)
	return hex.EncodeToString(h.Sum(nil))
}

// cache is the concurrent result store. Entries hold completed JobResults
// (reports, violations, final LLVM module) and are shared between hits, so
// consumers must treat cached payloads as read-only.
type cache struct {
	mu sync.RWMutex
	m  map[string]JobResult
}

func newCache() *cache {
	return &cache{m: make(map[string]JobResult)}
}

func (c *cache) get(key string) (JobResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *cache) put(key string, r JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Two workers can race on the same key (both missed before either
	// finished); first write wins so repeated hits stay identical.
	if _, dup := c.m[key]; !dup {
		c.m[key] = r
	}
}

// Len returns the number of distinct cached results.
func (c *cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
