//go:build pooldebug

package sim

func init() { PoolDebug = true }
