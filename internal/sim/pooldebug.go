//go:build pooldebug

package sim

func init() { poisonOnPut = true }
