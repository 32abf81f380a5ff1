package idd_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
)

// harness boots dbproxy + idd with one provisioned account.
type harness struct {
	sys   *kernel.System
	proxy *dbproxy.Proxy
	id    *idd.Idd
}

func boot(t *testing.T) *harness {
	t.Helper()
	h, _ := bootOpts(t, idd.Options{})
	return h
}

// login authenticates and returns the identity; the caller process gains
// uT ⋆, uG ⋆ and uT-3 clearance.
func (h *harness) login(t *testing.T, p *kernel.Process, user, pass string) (idd.Identity, bool) {
	t.Helper()
	reply := p.Open(nil).Handle()
	port, _ := h.sys.Env(idd.EnvLoginPort)
	const token = 7
	if err := idd.Login(p.Port(port), token, user, pass, reply); err != nil {
		t.Fatal(err)
	}
	d, err := p.RecvCtx(context.Background(), reply)
	if err != nil {
		t.Fatal(err)
	}
	p.Dissociate(reply)
	id, tok, ok := idd.ParseLoginReply(d)
	if tok != token {
		t.Fatalf("login reply echoed token %d, want %d", tok, token)
	}
	return id, ok
}

func TestLoginSuccess(t *testing.T) {
	h := boot(t)
	demux := h.sys.NewProcess("demux")
	id, ok := h.login(t, demux, "alice", "pw-a")
	if !ok {
		t.Fatal("login failed")
	}
	if id.UID != "1001" || !id.UT.Valid() || !id.UG.Valid() {
		t.Fatalf("identity = %+v", id)
	}
	// The grants landed: demux now holds both handles at ⋆.
	if demux.SendLabel().Get(id.UT) != label.Star {
		t.Error("uT ⋆ not granted")
	}
	if demux.SendLabel().Get(id.UG) != label.Star {
		t.Error("uG ⋆ not granted")
	}
	if demux.RecvLabel().Get(id.UT) != label.L3 {
		t.Error("uT clearance not granted")
	}
}

func TestLoginWrongPassword(t *testing.T) {
	h := boot(t)
	demux := h.sys.NewProcess("demux")
	if _, ok := h.login(t, demux, "alice", "WRONG"); ok {
		t.Fatal("wrong password accepted")
	}
	if _, ok := h.login(t, demux, "nobody", "pw"); ok {
		t.Fatal("unknown user accepted")
	}
}

func TestLoginCachedHandlesStable(t *testing.T) {
	h := boot(t)
	demux := h.sys.NewProcess("demux")
	id1, ok1 := h.login(t, demux, "alice", "pw-a")
	id2, ok2 := h.login(t, demux, "alice", "pw-a")
	if !ok1 || !ok2 {
		t.Fatal("logins failed")
	}
	if id1.UT != id2.UT || id1.UG != id2.UG {
		t.Fatal("repeat login must return the persisted handles")
	}
	// Different users get different handles.
	id3, ok3 := h.login(t, demux, "bob", "pw-b")
	if !ok3 || id3.UT == id1.UT || id3.UG == id1.UG {
		t.Fatal("distinct users must get distinct handles")
	}
}

func TestIddSendLabelGrowsPerUser(t *testing.T) {
	// Figure 9's cost driver: idd accumulates two ⋆ handles per user.
	h := boot(t)
	demux := h.sys.NewProcess("demux")
	before := h.id.Process().SendLabel().Len()
	if _, ok := h.login(t, demux, "alice", "pw-a"); !ok {
		t.Fatal("login failed")
	}
	if _, ok := h.login(t, demux, "bob", "pw-b"); !ok {
		t.Fatal("login failed")
	}
	// Exactly uT ⋆ + uG ⋆ per user: the per-request reply capability is
	// dropped after each reply, so it does not accumulate. idd sheds it
	// just AFTER sending the reply, so poll briefly — a fast client can
	// observe the label between the send and the drop. (The baseline is
	// clean: addUser waited for idd to shed its reply capability.)
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := h.id.Process().SendLabel().Len()
		if after-before == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("idd send label grew by %d entries for 2 users, want 4", after-before)
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// workerFixture logs a user in and builds a worker process tainted for that
// user, as ok-demux would.
func workerFixture(t *testing.T, h *harness, user, pass string) (*kernel.Process, idd.Identity) {
	t.Helper()
	demux := h.sys.NewProcess("demux-" + user)
	id, ok := h.login(t, demux, user, pass)
	if !ok {
		t.Fatalf("login %s failed", user)
	}
	w := h.sys.NewProcess("worker-" + user)
	boot := w.Open(nil).Handle()
	w.SetPortLabel(boot, label.Empty(label.L3))
	if err := demux.Port(boot).Send(nil, &kernel.SendOpts{
		DecontSend:  kernel.Grant(id.UG),
		Contaminate: kernel.Taint(label.L3, id.UT),
		DecontRecv:  kernel.AllowRecv(label.L3, id.UT),
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := w.TryRecv(); d == nil {
		t.Fatal("worker taint handoff dropped")
	}
	return w, id
}

func TestWorkerQueryRoundTrip(t *testing.T) {
	h := boot(t)
	w, id := workerFixture(t, h, "alice", "pw-a")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := w.Open(nil).Handle()
	v := dbproxy.VerifyFor(id.UT, id.UG)

	// Create a table, insert, select back.
	if err := dbproxy.Query(w.Port(proxyPort), "alice", "CREATE TABLE notes (text)", nil, reply, v); err != nil {
		t.Fatal(err)
	}
	d, err := w.RecvCtx(context.Background(), reply)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dbproxy.ParseDone(d); !ok {
		msg, _ := dbproxy.ParseError(d)
		t.Fatalf("create failed: %s", msg)
	}
	dbproxy.Query(w.Port(proxyPort), "alice", "INSERT INTO notes (text) VALUES (?)", []string{"alice-note"}, reply, v)
	if d, _ := w.RecvCtx(context.Background(), reply); d == nil {
		t.Fatal("insert reply lost")
	}
	dbproxy.Query(w.Port(proxyPort), "alice", "SELECT text FROM notes", nil, reply, v)
	var rows [][]string
	for {
		d, err := w.RecvCtx(context.Background(), reply)
		if err != nil {
			t.Fatal(err)
		}
		if row, ok := dbproxy.ParseRow(d); ok {
			rows = append(rows, row)
			continue
		}
		if _, ok := dbproxy.ParseDone(d); ok {
			break
		}
		msg, _ := dbproxy.ParseError(d)
		t.Fatalf("select error: %s", msg)
	}
	if len(rows) != 1 || rows[0][0] != "alice-note" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossUserRowsInvisible(t *testing.T) {
	// The paper's core §7.5 property: bob's worker cannot receive alice's
	// rows, and bob cannot even count them — his select's done message is
	// the same bytes whether alice owns no rows or five.
	h := boot(t)
	wa, ida := workerFixture(t, h, "alice", "pw-a")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	ra := wa.Open(nil).Handle()
	va := dbproxy.VerifyFor(ida.UT, ida.UG)
	dbproxy.Query(wa.Port(proxyPort), "alice", "CREATE TABLE posts (body)", nil, ra, va)
	wa.RecvCtx(context.Background(), ra)

	wb, idb := workerFixture(t, h, "bob", "pw-b")
	rb := wb.Open(nil).Handle()
	vb := dbproxy.VerifyFor(idb.UT, idb.UG)
	bobSelects := func() []byte {
		dbproxy.Query(wb.Port(proxyPort), "bob", "SELECT body FROM posts", nil, rb, vb)
		for {
			d, err := wb.RecvCtx(context.Background(), rb)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := dbproxy.ParseRow(d); ok {
				t.Fatal("bob received alice's row")
			}
			if _, ok := dbproxy.ParseDone(d); ok {
				return append([]byte(nil), d.Data...)
			}
		}
	}
	none := bobSelects()
	for i := 0; i < 5; i++ {
		dbproxy.Query(wa.Port(proxyPort), "alice", "INSERT INTO posts (body) VALUES ('private!')", nil, ra, va)
		wa.RecvCtx(context.Background(), ra)
	}
	if five := bobSelects(); !bytes.Equal(none, five) {
		t.Fatalf("bob's done reveals alice's row count: %x with 0 rows, %x with 5", none, five)
	}
	// And bob's send label must NOT have picked up alice's taint.
	if wb.SendLabel().Get(ida.UT) != label.L1 {
		t.Fatal("bob's worker contaminated by alice's taint")
	}
}

func TestForgedVerifyRejected(t *testing.T) {
	h := boot(t)
	_, ida := workerFixture(t, h, "alice", "pw-a")
	// A fresh process without uG tries to write as alice.
	evil := h.sys.NewProcess("evil")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := evil.Open(nil).Handle()
	v := dbproxy.VerifyFor(ida.UT, ida.UG)
	// The kernel drops the send outright: evil's ES(uG)=1 > V(uG)=0.
	dbproxy.Query(evil.Port(proxyPort), "alice", "CREATE TABLE x (a)", nil, reply, v)
	if d, _ := evil.TryRecv(reply); d != nil {
		t.Fatal("forged query got a reply")
	}
}

func TestUserColReserved(t *testing.T) {
	h := boot(t)
	w, id := workerFixture(t, h, "alice", "pw-a")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := w.Open(nil).Handle()
	v := dbproxy.VerifyFor(id.UT, id.UG)
	for _, q := range []string{
		"CREATE TABLE t (a, _uid)",
		"SELECT _uid FROM okws_users",
		"SELECT name FROM okws_users WHERE _uid = '1'",
	} {
		dbproxy.Query(w.Port(proxyPort), "alice", q, nil, reply, v)
		d, err := w.RecvCtx(context.Background(), reply)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dbproxy.ParseError(d); !ok {
			t.Errorf("%q: expected error reply", q)
		}
	}
}

func TestDeclassifyFlow(t *testing.T) {
	// §7.6: a declassifier (uT ⋆) publishes alice's profile; bob can then
	// read it untainted.
	h := boot(t)
	wa, ida := workerFixture(t, h, "alice", "pw-a")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	ra := wa.Open(nil).Handle()
	va := dbproxy.VerifyFor(ida.UT, ida.UG)
	dbproxy.Query(wa.Port(proxyPort), "alice", "CREATE TABLE profiles (bio)", nil, ra, va)
	wa.RecvCtx(context.Background(), ra)
	dbproxy.Query(wa.Port(proxyPort), "alice", "INSERT INTO profiles (bio) VALUES ('alice bio')", nil, ra, va)
	wa.RecvCtx(context.Background(), ra)

	// Declassifier: gets uT ⋆ from demux (simulated by a fresh login).
	demux := h.sys.NewProcess("demux-decl")
	idd2, ok := h.login(t, demux, "alice", "pw-a")
	if !ok {
		t.Fatal("login")
	}
	decl := h.sys.NewProcess("declassifier")
	dboot := decl.Open(nil).Handle()
	decl.SetPortLabel(dboot, label.Empty(label.L3))
	demux.Port(dboot).Send(nil, &kernel.SendOpts{
		DecontSend: kernel.Grant(idd2.UT), // ⋆, not taint — declassifier status
		DecontRecv: kernel.AllowRecv(label.L3, idd2.UT),
	})
	if d, _ := decl.TryRecv(); d == nil {
		t.Fatal("declassifier grant dropped")
	}
	rd := decl.Open(nil).Handle()
	vd := dbproxy.VerifyDeclassify(idd2.UT)
	if err := dbproxy.Declassify(decl.Port(proxyPort), "alice",
		"UPDATE profiles SET bio = 'alice bio' WHERE bio = 'alice bio'", nil, rd, vd); err != nil {
		t.Fatal(err)
	}
	d, err := decl.RecvCtx(context.Background(), rd)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := dbproxy.ParseDone(d); !ok || n != 1 {
		msg, _ := dbproxy.ParseError(d)
		t.Fatalf("declassify failed: n=%d ok=%v err=%s", n, ok, msg)
	}

	// Bob reads the declassified row, untainted.
	wb, idb := workerFixture(t, h, "bob", "pw-b")
	rb := wb.Open(nil).Handle()
	vb := dbproxy.VerifyFor(idb.UT, idb.UG)
	dbproxy.Query(wb.Port(proxyPort), "bob", "SELECT bio FROM profiles", nil, rb, vb)
	var rows [][]string
	for {
		d, err := wb.RecvCtx(context.Background(), rb)
		if err != nil {
			t.Fatal(err)
		}
		if row, ok := dbproxy.ParseRow(d); ok {
			rows = append(rows, row)
			continue
		}
		break
	}
	if len(rows) != 1 || rows[0][0] != "alice bio" {
		t.Fatalf("declassified read = %v", rows)
	}
	if wb.SendLabel().Get(ida.UT) != label.L1 {
		t.Fatal("declassified row contaminated bob")
	}
}

func TestDeclassifyRequiresStar(t *testing.T) {
	h := boot(t)
	w, id := workerFixture(t, h, "alice", "pw-a") // tainted, NOT a declassifier
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := w.Open(nil).Handle()
	// A tainted worker cannot prove uT ⋆: its ES(uT)=3 > ⋆ fails check 1.
	v := dbproxy.VerifyDeclassify(id.UT)
	dbproxy.Declassify(w.Port(proxyPort), "alice", "UPDATE profiles SET bio = 'x'", nil, reply, v)
	if d, _ := w.TryRecv(reply); d != nil {
		t.Fatal("tainted worker's declassify request should be dropped by the kernel")
	}
}

func TestUpdateDeleteScopedToOwnRows(t *testing.T) {
	h := boot(t)
	wa, ida := workerFixture(t, h, "alice", "pw-a")
	wb, idb := workerFixture(t, h, "bob", "pw-b")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	ra, rb := wa.Open(nil).Handle(), wb.Open(nil).Handle()
	va := dbproxy.VerifyFor(ida.UT, ida.UG)
	vb := dbproxy.VerifyFor(idb.UT, idb.UG)

	dbproxy.Query(wa.Port(proxyPort), "alice", "CREATE TABLE items (v)", nil, ra, va)
	wa.RecvCtx(context.Background(), ra)
	dbproxy.Query(wa.Port(proxyPort), "alice", "INSERT INTO items (v) VALUES ('A')", nil, ra, va)
	wa.RecvCtx(context.Background(), ra)
	dbproxy.Query(wb.Port(proxyPort), "bob", "INSERT INTO items (v) VALUES ('B')", nil, rb, vb)
	wb.RecvCtx(context.Background(), rb)

	// Bob updates "all" rows: only his row is touched.
	dbproxy.Query(wb.Port(proxyPort), "bob", "UPDATE items SET v = 'HACKED'", nil, rb, vb)
	d, _ := wb.RecvCtx(context.Background(), rb)
	if n, ok := dbproxy.ParseDone(d); !ok || n != 1 {
		t.Fatalf("bob's update affected %d rows", n)
	}
	// Bob deletes "all" rows: only his.
	dbproxy.Query(wb.Port(proxyPort), "bob", "DELETE FROM items", nil, rb, vb)
	d, _ = wb.RecvCtx(context.Background(), rb)
	if n, ok := dbproxy.ParseDone(d); !ok || n != 1 {
		t.Fatalf("bob's delete affected %d rows", n)
	}
	// Alice's row is intact.
	dbproxy.Query(wa.Port(proxyPort), "alice", "SELECT v FROM items", nil, ra, va)
	var rows [][]string
	for {
		d, err := wa.RecvCtx(context.Background(), ra)
		if err != nil {
			t.Fatal(err)
		}
		if row, ok := dbproxy.ParseRow(d); ok {
			rows = append(rows, row)
			continue
		}
		break
	}
	if len(rows) != 1 || rows[0][0] != "A" {
		t.Fatalf("alice's rows after bob's attack = %v", rows)
	}
}

func TestUnknownUserQuery(t *testing.T) {
	h := boot(t)
	w := h.sys.NewProcess("w")
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := w.Open(nil).Handle()
	dbproxy.Query(w.Port(proxyPort), "ghost", "SELECT a FROM t", nil, reply, label.Empty(label.L2))
	d, err := w.RecvCtx(context.Background(), reply)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dbproxy.ParseError(d); !ok {
		t.Fatal("unknown user should get an error")
	}
}

var _ = handle.None // keep handle import for fixtures that may evolve
