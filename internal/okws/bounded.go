package okws

import (
	"sync/atomic"

	"asbestos/internal/handle"
)

// connTable is a shard's connection-port → connection map with an atomically
// readable size: all writes belong to the owning loop, but diagnostics
// (Demux.ConnCount, the leak regression tests) read the count from other
// goroutines. Encapsulating the counter here keeps the two in sync at
// every call site by construction.
//
// The demux's bounded tables (the session table, which holds pinned and
// bound entries alike, and the login cache) live on internal/lru — the
// generic LRU grew out of this file and moved there when idd needed the
// same bound for its identity cache and backoff table.
type connTable struct {
	m    map[handle.Handle]*dconn
	size atomic.Int64
}

func newConnTable() *connTable {
	return &connTable{m: make(map[handle.Handle]*dconn)}
}

func (t *connTable) get(h handle.Handle) *dconn { return t.m[h] }

func (t *connTable) put(h handle.Handle, cs *dconn) {
	t.m[h] = cs
	t.size.Store(int64(len(t.m)))
}

func (t *connTable) del(h handle.Handle) {
	delete(t.m, h)
	t.size.Store(int64(len(t.m)))
}

// len is safe from any goroutine.
func (t *connTable) len() int { return int(t.size.Load()) }
