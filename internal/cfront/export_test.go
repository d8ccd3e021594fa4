package cfront

import "unsafe"

// PooledTokenBytes returns the bytes of the token buffer a parse of src
// takes from its pool instead of allocating: the capacity the lexer asks
// for before its first token.
func PooledTokenBytes(src string) int {
	return (len(src)/3 + 1) * int(unsafe.Sizeof(token{}))
}
