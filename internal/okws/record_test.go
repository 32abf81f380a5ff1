package okws

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/mem"
)

// TestRecordsRoundTrip pins the one record format event-process memory
// keeps. Session metadata, a full keep-alive table and app data each read
// back what was written; a record that is truncated, oversized, tagged for
// another region or all zeros reads as absent; and session metadata that
// would reach sessionDataAddr is refused without a write.
func TestRecordsRoundTrip(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(45))
	w := sys.NewProcess("worker")
	base := w.Open(nil)
	base.SetLabel(label.Empty(label.L3))
	sys.NewProcess("client").Port(base.Handle()).Send([]byte("start"), nil)
	_, ep, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m := ep.Memory()
	c := &Ctx{ep: ep}

	st := sessState{user: "alice", uid: "1001", uT: 11, uG: 12, sess: 13, reply: 14}
	parked := make([]kaEntry, maxParkedConns)
	for i := range parked {
		parked[i] = kaEntry{port: handle.Handle(100 + i), conn: handle.Handle(1000 + i),
			leftover: bytes.Repeat([]byte{byte(i)}, maxKALeftover)}
	}
	data := []byte("app data")

	regions := []struct {
		name  string
		addr  mem.Addr
		limit int
		tag   byte
		store func() bool
		// load reports whether the region reads as present, and whether
		// what it read equals what was stored.
		load func() (present, equal bool)
	}{
		{"session", SessionAddr, sessionLimit, recSession,
			func() bool { return storeSession(m, st) },
			func() (bool, bool) { got, ok := loadSession(m); return ok, got == st }},
		{"parked", kaAddr, kaLimit, recParked,
			func() bool { kaStore(m, parked); return true },
			func() (bool, bool) { got := kaLoad(m); return got != nil, reflect.DeepEqual(got, parked) }},
		{"data", sessionDataAddr, dataLimit, recData,
			func() bool { c.SessionStore(data); return true },
			func() (bool, bool) { got := c.SessionLoad(); return got != nil, bytes.Equal(got, data) }},
	}
	for _, rg := range regions {
		t.Run(rg.name, func(t *testing.T) {
			if !rg.store() {
				t.Fatal("store refused a record that fits")
			}
			if present, equal := rg.load(); !present || !equal {
				t.Fatalf("round trip: present %v, equal %v", present, equal)
			}
			var n [4]byte
			m.ReadAt(rg.addr, n[:])
			size := binary.BigEndian.Uint32(n[:])
			setSize := func(v uint32) {
				binary.BigEndian.PutUint32(n[:], v)
				m.WriteAt(rg.addr, n[:])
			}
			corrupt := []struct {
				name string
				do   func()
			}{
				{"truncated", func() { setSize(size - 1) }},
				{"oversized", func() { setSize(uint32(rg.limit)) }},
				{"wrong tag", func() { m.WriteAt(rg.addr+4, []byte{rg.tag%3 + 1}) }},
				{"all zero", func() { m.WriteAt(rg.addr, make([]byte, 4+size)) }},
			}
			for _, cr := range corrupt {
				rg.store()
				cr.do()
				if present, _ := rg.load(); present {
					t.Errorf("%s record read as present", cr.name)
				}
			}
		})
	}

	storeSession(m, st)
	long := st
	long.user = strings.Repeat("u", 600)
	if storeSession(m, long) {
		t.Fatal("session metadata reaching sessionDataAddr was stored")
	}
	if got, ok := loadSession(m); !ok || got != st {
		t.Fatalf("a refused store changed the session record: %+v %v", got, ok)
	}
}
