package kv

import "flexdriver/internal/tcp"

// ConnState exposes what the connection table holds for a frame's
// connection (zero for one never seen).
func (a *AFU) ConnState(info tcp.FrameInfo) (lastSeq uint32, reqs int64) {
	cs := a.conns[connKey(info)]
	return cs.LastSeq, cs.Reqs
}
