package hls

import "unsafe"

// PooledTableBytes returns the bytes of the per-instruction tables that a
// synthesis of n instructions with nargs operands in all takes from its
// pool instead of allocating.
func PooledTableBytes(n, nargs int) int {
	var t synthTables
	per := unsafe.Sizeof(t.instrs[0]) + unsafe.Sizeof(t.cost[0]) + unsafe.Sizeof(t.argOff[0]) +
		unsafe.Sizeof(t.base[0]) + unsafe.Sizeof(t.area[0]) + unsafe.Sizeof(t.stamp[0]) +
		unsafe.Sizeof(t.finish[0])
	return n*int(per) + (1+nargs)*int(unsafe.Sizeof(t.args[0]))
}
