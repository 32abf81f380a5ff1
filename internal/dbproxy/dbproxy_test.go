package dbproxy

import (
	"reflect"
	"strconv"
	"testing"

	"asbestos/internal/db"
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/wire"
)

// The cross-process behaviour of ok-dbproxy is covered by the idd
// integration tests; this file unit-tests the proxy's query rewriting and
// label construction directly, and drives one shard synchronously (no
// event loop) to pin what a select sends.

func TestNamesUserColDetection(t *testing.T) {
	cases := map[string]bool{
		"SELECT a FROM t":                          false,
		"SELECT _uid FROM t":                       true,
		"SELECT _UID FROM t":                       true, // case-insensitive
		"SELECT a FROM t WHERE _uid = '1'":         true,
		"INSERT INTO t (a, _uid) VALUES ('1','2')": true,
		"INSERT INTO t (a) VALUES ('1')":           false,
		"UPDATE t SET _uid = '0'":                  true,
		"UPDATE t SET a = '0' WHERE _uid = '1'":    true,
		"UPDATE t SET a = '0' WHERE b = '1'":       false,
		"DELETE FROM t WHERE _uid = '9'":           true,
		"DELETE FROM t":                            false,
		"CREATE TABLE t (a, _uid)":                 true,
		"CREATE TABLE t (a, b)":                    false,
	}
	for q, want := range cases {
		stmt, err := db.Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got := namesUserCol(stmt); got != want {
			t.Errorf("namesUserCol(%q) = %v, want %v", q, got, want)
		}
	}
}

func TestVerifyForShape(t *testing.T) {
	uT, uG := handle.Handle(10), handle.Handle(11)
	v := VerifyFor(uT, uG)
	if v.Get(uT) != label.L3 || v.Get(uG) != label.L0 || v.Default() != label.L2 {
		t.Fatalf("VerifyFor = %v", v)
	}
	vd := VerifyDeclassify(uT)
	if vd.Get(uT) != label.Star || vd.Default() != label.L2 {
		t.Fatalf("VerifyDeclassify = %v", vd)
	}
}

func TestParseHelpersRejectWrongOps(t *testing.T) {
	d := &kernel.Delivery{Data: []byte{99, 0, 0}}
	if _, ok := ParseRow(d); ok {
		t.Error("ParseRow accepted wrong op")
	}
	if _, ok := ParseDone(d); ok {
		t.Error("ParseDone accepted wrong op")
	}
	if _, ok := ParseError(d); ok {
		t.Error("ParseError accepted wrong op")
	}
	if _, ok := ParseAdminResult(d); ok {
		t.Error("ParseAdminResult accepted wrong op")
	}
}

// direct is a proxy whose single shard the test drives by hand, plus an
// idd stand-in holding the admin capability.
type direct struct {
	t     *testing.T
	sys   *kernel.System
	p     *Proxy
	s     *proxyShard
	admin *kernel.Process
}

func newDirect(t *testing.T) *direct {
	t.Helper()
	sys := kernel.NewSystem(kernel.WithSeed(21))
	p := New(sys, db.Open())
	admin := sys.NewProcess("idd-stub")
	grantRx := admin.Open(nil)
	grantRx.SetLabel(label.Empty(label.L3))
	if err := p.GrantAdmin(grantRx.Handle()); err != nil {
		t.Fatal(err)
	}
	if d, _ := admin.TryRecv(); d == nil {
		t.Fatal("admin grant lost")
	}
	return &direct{t: t, sys: sys, p: p, s: p.shards[0], admin: admin}
}

// dispatch hands the proxy's next delivery to the handler of the port it
// arrived on, then flushes the shard Batcher as the loop does after a burst.
func (x *direct) dispatch() {
	x.t.Helper()
	d, _ := x.p.Process().TryRecv()
	if d == nil {
		x.t.Fatal("proxy has nothing to receive")
	}
	switch d.Port {
	case x.s.adminPort.Handle():
		x.s.handleAdmin(d)
	case x.s.workerPort.Handle():
		x.s.handleWorker(d)
	default:
		x.t.Fatalf("delivery on unknown port %v", d.Port)
	}
	if err := x.s.out.Flush(); err != nil {
		x.t.Fatal(err)
	}
}

// user mints uT/uG for name, pushes the binding as idd does, and returns
// a worker set up as ok-demux would: uT 3 contamination, uG ⋆, uT 3
// clearance.
func (x *direct) user(name, uid string) (*kernel.Process, Mapping) {
	x.t.Helper()
	m := Mapping{UID: uid, UT: x.admin.NewHandle(), UG: x.admin.NewHandle()}
	if err := PushMapping(x.admin.Port(x.p.AdminPort()), name, m); err != nil {
		x.t.Fatal(err)
	}
	x.dispatch()
	return x.boot("worker-"+name, &kernel.SendOpts{
		DecontSend:  kernel.Grant(m.UG),
		Contaminate: kernel.Taint(label.L3, m.UT),
		DecontRecv:  kernel.AllowRecv(label.L3, m.UT),
	}), m
}

// boot starts a process and hands it the labels in opts from the stub.
func (x *direct) boot(name string, opts *kernel.SendOpts) *kernel.Process {
	x.t.Helper()
	w := x.sys.NewProcess(name)
	port := w.Open(nil).Handle()
	w.SetPortLabel(port, label.Empty(label.L3))
	if err := x.admin.Port(port).Send(nil, opts); err != nil {
		x.t.Fatal(err)
	}
	if d, _ := w.TryRecv(); d == nil {
		x.t.Fatalf("%s's boot message dropped", name)
	}
	return w
}

// selectRows runs sql from w as user — a Declassify when decl is set —
// and returns the rows w received, in order. The stream must end in a done
// carrying 0.
func (x *direct) selectRows(w *kernel.Process, user string, m Mapping, decl bool, sql string, args ...string) [][]string {
	x.t.Helper()
	reply := w.Open(nil).Handle()
	defer w.Dissociate(reply)
	send, v := Query, VerifyFor(m.UT, m.UG)
	if decl {
		send, v = Declassify, VerifyDeclassify(m.UT)
	}
	if err := send(w.Port(x.p.WorkerPort()), user, sql, args, reply, v); err != nil {
		x.t.Fatal(err)
	}
	x.dispatch()
	var rows [][]string
	for {
		d, _ := w.TryRecv(reply)
		if d == nil {
			x.t.Fatalf("%s %q: stream ended without a done", user, sql)
		}
		if row, ok := ParseRow(d); ok {
			rows = append(rows, row)
			continue
		}
		if n, ok := ParseDone(d); ok {
			if n != 0 {
				x.t.Fatalf("%s %q: select's done carries %d, want 0", user, sql, n)
			}
			return rows
		}
		msg, _ := ParseError(d)
		x.t.Fatalf("%s %q: %s", user, sql, msg)
	}
}

// adminRead returns every row of table through the unrestricted admin
// port, owner column included.
func (x *direct) adminRead(table string) AdminResult {
	x.t.Helper()
	reply := x.admin.Open(nil).Handle()
	defer x.admin.Dissociate(reply)
	if err := AdminExec(x.admin.Port(x.p.AdminPort()), "SELECT * FROM "+table, nil, reply); err != nil {
		x.t.Fatal(err)
	}
	x.dispatch()
	d, _ := x.admin.TryRecv(reply)
	if d == nil {
		x.t.Fatal("admin read lost")
	}
	res, ok := ParseAdminResult(d)
	if !ok {
		x.t.Fatal("admin read failed")
	}
	return res
}

func TestMappingPushAndQueryPathDirect(t *testing.T) {
	// Drive the proxy synchronously (no goroutine): a trusted admin pushes
	// a mapping, then a worker-shaped process queries.
	x := newDirect(t)
	p, admin := x.p, x.admin
	uT := admin.NewHandle()
	uG := admin.NewHandle()
	if err := PushMapping(admin.Port(p.AdminPort()), "zoe",
		Mapping{UID: "7", UT: uT, UG: uG}); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Process().TryRecv()
	if d == nil {
		t.Fatal("mapping delivery lost")
	}
	// Dispatch by hand.
	pd := d
	if pd.Port != p.AdminPort() {
		t.Fatal("mapping arrived on wrong port")
	}
	p.shards[0].handleAdmin(pd)
	if m, ok := p.shards[0].byUser["zoe"]; !ok || m.UID != "7" {
		t.Fatalf("mapping not installed: %+v", p.shards[0].byUser)
	}
	// The push granted the proxy uT ⋆ and uT-3 clearance.
	if p.Process().SendLabel().Get(uT) != label.Star {
		t.Error("proxy missing uT ⋆")
	}
	if p.Process().RecvLabel().Get(uT) != label.L3 {
		t.Error("proxy missing uT clearance")
	}
}

// TestSelectSendsExactlyDeliverableRows: for every user and query shape,
// the rows a worker receives are the admin-path read filtered to the
// user's own and declassified rows, in table order, and the kernel drops
// nothing because nothing foreign was sent.
func TestSelectSendsExactlyDeliverableRows(t *testing.T) {
	x := newDirect(t)
	users := []struct{ name, uid string }{{"alice", "1"}, {"bob", "2"}, {"carol", "3"}}
	workers := make([]*kernel.Process, len(users))
	maps := make([]Mapping, len(users))
	for i, u := range users {
		workers[i], maps[i] = x.user(u.name, u.uid)
	}
	// Interleave the three users, declassified rows and a UID that was
	// never pushed; every (owner, k) pair occurs.
	if _, err := x.p.db.Exec("CREATE TABLE items (k, v, " + UserCol + ")"); err != nil {
		t.Fatal(err)
	}
	owners := []string{"1", "2", DeclassifiedUID, "3", "99"}
	for i := 0; i < 30; i++ {
		if _, err := x.p.db.Exec("INSERT INTO items (k, v, "+UserCol+") VALUES (?, ?, ?)",
			"k"+strconv.Itoa(i%3), "v"+strconv.Itoa(i), owners[i*3%len(owners)]); err != nil {
			t.Fatal(err)
		}
	}
	all := x.adminRead("items") // columns k, v, _uid

	// want projects the admin rows owned by uid or declassified, whose k
	// matches (any k when empty), onto cols.
	want := func(uid string, cols []int, k string) [][]string {
		var out [][]string
		for _, r := range all.Rows {
			if (r[2] == uid || r[2] == DeclassifiedUID) && (k == "" || r[0] == k) {
				row := make([]string, len(cols))
				for i, c := range cols {
					row[i] = r[c]
				}
				out = append(out, row)
			}
		}
		return out
	}
	queries := []struct {
		sql  string
		args []string
		cols []int
		k    string
	}{
		{"SELECT * FROM items", nil, []int{0, 1}, ""},
		{"SELECT v FROM items", nil, []int{1}, ""},
		{"SELECT v FROM items WHERE k = ?", []string{"k1"}, []int{1}, "k1"},
	}

	drops := x.sys.Drops()
	for i, u := range users {
		for _, q := range queries {
			got := x.selectRows(workers[i], u.name, maps[i], false, q.sql, q.args...)
			if w := want(u.uid, q.cols, q.k); !reflect.DeepEqual(got, w) {
				t.Errorf("%s %q: got %v, want %v", u.name, q.sql, got, w)
			}
		}
		// The worker stays tainted only by its own user.
		for j, o := range maps {
			if j != i && workers[i].SendLabel().Get(o.UT) != label.L1 {
				t.Errorf("%s's worker contaminated by %s's taint", u.name, users[j].name)
			}
		}
	}
	// A declassifier (uT ⋆, proven by its verify label) writes as uid 0,
	// but its reads are keyed on the verified user: alice's rows plus the
	// public ones.
	decl := x.boot("declassifier-alice", &kernel.SendOpts{
		DecontSend: kernel.Grant(maps[0].UT),
		DecontRecv: kernel.AllowRecv(label.L3, maps[0].UT),
	})
	got := x.selectRows(decl, "alice", maps[0], true, "SELECT * FROM items")
	if w := want("1", []int{0, 1}, ""); !reflect.DeepEqual(got, w) {
		t.Errorf("declassifier: got %v, want %v", got, w)
	}
	if d := x.sys.Drops() - drops; d != 0 {
		t.Errorf("kernel dropped %d messages: the proxy sent rows the caller cannot receive", d)
	}
}

// TestKernelDropsForeignRow keeps the kernel boundary under test now that
// the proxy sends no foreign rows: the proxy's own process queues alice's
// row, tainted with alice's uT, to bob's reply port through the shard
// Batcher — what a wrong filter would do — and bob must not receive it.
func TestKernelDropsForeignRow(t *testing.T) {
	x := newDirect(t)
	_, alice := x.user("alice", "1")
	bob, bm := x.user("bob", "2")
	if _, err := x.p.db.Exec("CREATE TABLE items (v, " + UserCol + ")"); err != nil {
		t.Fatal(err)
	}
	if _, err := x.p.db.Exec("INSERT INTO items (v, "+UserCol+") VALUES (?, ?)",
		"alice's secret", alice.UID); err != nil {
		t.Fatal(err)
	}
	reply := bob.Open(nil).Handle()
	if err := Query(bob.Port(x.p.WorkerPort()), "bob", "SELECT v FROM items", nil, reply,
		VerifyFor(bm.UT, bm.UG)); err != nil {
		t.Fatal(err)
	}
	// Receiving the query grants the proxy bob's reply capability; the
	// forged row goes in ahead of the handler's done.
	d, _ := x.p.Process().TryRecv()
	if d == nil {
		t.Fatal("query lost")
	}
	x.s.out.Add(reply, wire.NewWriter(OpRow).U32(1).String("alice's secret").Done(),
		&kernel.SendOpts{Contaminate: kernel.Taint(label.L3, alice.UT)})
	x.s.handleWorker(d)
	if err := x.s.out.Flush(); err != nil {
		t.Fatal(err)
	}
	drops := x.sys.Drops()
	for {
		d, _ := bob.TryRecv(reply)
		if d == nil {
			t.Fatal("stream ended without a done")
		}
		if row, ok := ParseRow(d); ok {
			t.Fatalf("bob received alice's row %v", row)
		}
		if _, ok := ParseDone(d); ok {
			break
		}
	}
	if x.sys.Drops() != drops+1 {
		t.Errorf("kernel drops moved by %d, want 1", x.sys.Drops()-drops)
	}
	if bob.SendLabel().Get(alice.UT) != label.L1 {
		t.Fatal("bob's worker contaminated by alice's taint")
	}
}
