package llvm

// IntTypeInterned reports whether IntT has interned the width bits in the
// process-wide table of off-mainline widths.
func IntTypeInterned(bits int) bool {
	_, ok := intTypes.Load(bits)
	return ok
}
