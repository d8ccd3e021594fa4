package oracle

// ResetShared empties the shared reference table, so the next New on any
// kernel runs its reference, as in a fresh process.
func ResetShared() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	clear(shared.refs)
	shared.bytes = 0
}

// Compiles returns how many programs harnesses have compiled in this
// process; every one was compiled to execute.
func Compiles() int64 { return compiles.Load() }
