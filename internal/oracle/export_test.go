package oracle

// ResetShared empties the shared reference table, so the next New on any
// kernel runs its reference, as in a fresh process.
func ResetShared() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	clear(shared.refs)
	shared.bytes = 0
}
