package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// cacheEntries bounds the whole-flow cache (Options.Cache), an incr.Cache:
// adding to a full cache drops an arbitrary result. The keys have no bound
// of their own (a float clock, free MLIR text), so without one a
// long-lived hls-serve would keep every result it computed. The bound is
// over four times the 612 distinct points (18 kernels × 2 flows × 17
// dse.Space() configurations) that the largest in-repo caller, perfbench's
// hls-serve session, sends through one engine; a full flowbench run sends
// 122. A polybench result at SMALL holds 12–33 KB (20 KB on average), so a
// full cache holds about 50–85 MB.
const cacheEntries = 2560
