package kernel

import "sync"

// msgPool recycles Message nodes, the links of every process's MPSC inbox.
// A node comes back here when the kernel lets go of it: on a drop (failed
// receiver-side checks, a dead port, queue overflow, process exit) and on
// a delivery, whose payload moves into the Delivery. Payloads are never
// pooled: a send's defensive copy is an ordinary slice, and a receiver may
// keep d.Data as long as it likes.
//
// Fields are cleared when a node is pooled, so a pooled node pins neither
// a payload nor the (immutable, shared) labels it carried.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// getMsg returns a Message node. All fields are garbage; the caller must
// assign every one of them before publishing the node.
func getMsg() *Message {
	return msgPool.Get().(*Message)
}

// freeMsg recycles a node the kernel no longer needs.
func freeMsg(m *Message) {
	*m = Message{}
	msgPool.Put(m)
}

// PoolStats is what PayloadPoolStats reports.
type PoolStats struct {
	Drawn    uint64
	Returned uint64
}

// PayloadPoolStats reports zeros: the kernel keeps no payload pool. It
// stays only because the gated benchmark (bench/) still reads it.
func PayloadPoolStats() PoolStats { return PoolStats{} }
