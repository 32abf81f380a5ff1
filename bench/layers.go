package main

import (
	"context"
	"fmt"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/passhash"
)

// The layer probes time calls into one layer's public functions from this
// package, on fresh state, at fixed sizes: they say what a layer costs on
// its own, whatever the workload, so a later change to one layer can be
// located before it is looked for in the end-to-end numbers. Spans inside
// the program are a later issue.

// labelSizes are the entry counts the label and kernel probes run at: the
// label population of the 16-user workloads and of echo.sessions2k.
var labelSizes = []int{16, 2000}

// meanNS times f over n calls.
func meanNS(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// alternating builds a label of e entries, default level 1, whose even
// entries sit at one level and odd entries at another. Levels that straddle
// the other operand's defeat the cached-bounds shortcuts, so an operation on
// two such labels has to walk them.
func alternating(e int, even, odd label.Level) *label.Label {
	ents := make([]label.Entry, e)
	for i := range ents {
		ents[i] = label.Entry{H: handle.Handle(1000 + i), L: even}
		if i%2 == 1 {
			ents[i].L = odd
		}
	}
	return label.New(label.L1, ents...)
}

// probeLabels times first-seen ⊑, ⊔ and Contaminate on labels of e entries.
// Every pair is built fresh (With gives a new fingerprint), so each call is
// an op-cache miss and walks the entries — the case connect-per-request
// workloads mostly pay, since a new connection's handle gives the labels it
// touches new fingerprints.
func probeLabels(res *result, e int) error {
	const pairs = 400
	// Twice the pairs: the first half is an untimed pass that allocates the
	// op cache's shard maps, as any warmed-up server already has.
	fresh := func(l *label.Label, lvl label.Level) []*label.Label {
		out := make([]*label.Label, 2*pairs)
		for i := range out {
			out[i] = l.With(handle.Handle(1_000_000+i), lvl)
		}
		return out
	}
	// a ⊑ b holds, but only the full walk can tell.
	a, b := fresh(alternating(e, label.Star, label.L2), label.L0), fresh(alternating(e, label.L0, label.L3), label.L3)
	// c and d are incomparable: ⊔ must merge them.
	c, d := fresh(alternating(e, label.Star, label.L3), label.L0), fresh(alternating(e, label.L0, label.L2), label.L3)
	// A receiver holding ⋆ for half its entries takes a message tainted above
	// the rest: Equation 5 changes the label.
	qs, es := fresh(alternating(e, label.Star, label.L0), label.L0), fresh(alternating(e, label.L3, label.L2), label.L3)

	ok := true
	var leq, lub, con float64
	for _, off := range []int{0, pairs} {
		leq = meanNS(pairs, func(i int) { ok = a[off+i].Leq(b[off+i]) && ok })
		lub = meanNS(pairs, func(i int) { ok = c[off+i].Lub(d[off+i]).Len() >= e && ok })
		con = meanNS(pairs, func(i int) { ok = qs[off+i].Contaminate(es[off+i]).Len() >= e && ok })
	}
	if !ok {
		return fmt.Errorf("label probe: wrong result at %d entries", e)
	}
	res.set(fmt.Sprintf("label.leq_ns.e%d", e), leq, "ns")
	res.set(fmt.Sprintf("label.lub_ns.e%d", e), lub, "ns")
	res.set(fmt.Sprintf("label.contaminate_ns.e%d", e), con, "ns")
	return nil
}

// probeKernelIPC times one Port.Send → Recv hop between two processes that
// each hold e handles at ⋆, so every label the kernel checks on the way has
// e entries. Both ends run on this goroutine: no scheduler in the number.
func probeKernelIPC(res *result, e int) error {
	const rounds = 2000
	sys := kernel.NewSystem(kernel.WithSeed(7))
	p, q := sys.NewProcess("bench-ping"), sys.NewProcess("bench-pong")
	defer p.Exit()
	defer q.Exit()
	for i := 0; i < e; i++ {
		p.NewHandle()
		q.NewHandle()
	}
	pIn, qIn := p.Open(nil), q.Open(nil)
	for _, in := range []*kernel.Port{pIn, qIn} {
		if err := in.SetLabel(label.Empty(label.L3)); err != nil {
			return err
		}
	}
	toQ, toP := p.Port(qIn.Handle()), q.Port(pIn.Handle())
	payload := make([]byte, 16)
	hop := func(to, in *kernel.Port) error {
		if err := to.Send(payload, nil); err != nil {
			return err
		}
		d, err := in.TryRecv()
		if err != nil {
			return err
		}
		if d == nil {
			return fmt.Errorf("kernel ipc probe: message dropped at %d entries", e)
		}
		d.Release()
		return nil
	}
	var err error
	ns := meanNS(rounds, func(int) {
		if err == nil {
			err = hop(toQ, qIn)
		}
		if err == nil {
			err = hop(toP, pIn)
		}
	})
	res.set(fmt.Sprintf("kernel.ipc_ns.e%d", e), ns/2, "ns")
	return err
}

// probeDB times a point read straight on the database engine, on a table
// shaped like store.mixed's.
func probeDB(res *result) error {
	database := db.Open()
	if _, err := database.Exec("CREATE TABLE notes (k, d, _uid)"); err != nil {
		return err
	}
	for u := 0; u < 16; u++ {
		for j := 0; j < rowsPerUser; j++ {
			if _, err := database.Exec("INSERT INTO notes (k, d, _uid) VALUES (?, ?, ?)", rowKey(u, j), initialValue(u, j), fmt.Sprint(1000+u)); err != nil {
				return err
			}
		}
	}
	var err error
	ns := meanNS(4000, func(i int) {
		r, e := database.Exec("SELECT d FROM notes WHERE k = ?", rowKey(i%16, i%rowsPerUser))
		if e != nil || len(r.Rows) != 1 {
			err = fmt.Errorf("db probe: %d rows, %v", len(r.Rows), e)
		}
	})
	res.set("db.exec_us", ns/1e3, "us")
	return err
}

// probeIdd times one idd login round trip, as BenchmarkLoginPath does:
// cold (identity cache of one entry, users cycled, so every login pays the
// dbproxy lookup and the Argon2id verify) and cached (one user again and
// again, verified against the cached hash).
func probeIdd(res *result) error {
	const users, logins = 32, 300
	for _, mode := range []struct {
		name     string
		cacheCap int
	}{{"cold", 1}, {"cached", 0}} {
		sys := kernel.NewSystem(kernel.WithSeed(7))
		proxy := dbproxy.New(sys, db.Open())
		iddSrv := idd.NewOpts(sys, proxy, idd.Options{CacheCap: mode.cacheCap, Ladder: []idd.BackoffRung{}})
		go proxy.Run()
		go iddSrv.Run()
		err := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			client := sys.NewProcess("bench-login")
			defer client.Exit()
			reply := client.Open(nil)
			adminPort, _ := sys.Env(idd.EnvAdminPort)
			loginPort, _ := sys.Env(idd.EnvLoginPort)
			for u := 0; u < users; u++ {
				if err := idd.AddUser(client.Port(adminPort), userName(u), userPass(u), fmt.Sprint(1000+u), reply.Handle()); err != nil {
					return err
				}
				d, err := reply.Recv(ctx)
				if err != nil {
					return err
				}
				ok := idd.ParseAddUserReply(d)
				d.Release()
				if !ok {
					return fmt.Errorf("idd probe: add user rejected")
				}
			}
			login := func(i int) error {
				u := 0
				if mode.cacheCap == 1 {
					u = i % users
				}
				tok := uint64(i + 1)
				if err := idd.Login(client.Port(loginPort), tok, userName(u), userPass(u), reply.Handle()); err != nil {
					return err
				}
				d, err := reply.Recv(ctx)
				if err != nil {
					return err
				}
				_, got, ok := idd.ParseLoginReply(d)
				d.Release()
				if !ok || got != tok {
					return fmt.Errorf("idd probe: login %d refused", i)
				}
				return nil
			}
			err := login(logins) // warm the cached case; one more miss in the cold one
			ns := meanNS(logins, func(i int) {
				if err == nil {
					err = login(i)
				}
			})
			res.set("idd.login_us."+mode.name, ns/1e3, "us")
			return err
		}()
		iddSrv.Stop()
		proxy.Stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// probePasshash times one verify at the shipped Argon2id cost.
func probePasshash(res *result) error {
	enc := passhash.Hash("p0000", passhash.ServerParams)
	ok := true
	ns := meanNS(200, func(int) { ok = passhash.Verify("p0000", enc) && ok })
	res.set("passhash.verify_us", ns/1e3, "us")
	if !ok {
		return fmt.Errorf("passhash probe: verify failed")
	}
	return nil
}

// probeLayers runs every workload-independent probe.
func probeLayers(res *result) error {
	for _, e := range labelSizes {
		if err := probeLabels(res, e); err != nil {
			return err
		}
		if err := probeKernelIPC(res, e); err != nil {
			return err
		}
	}
	if err := probeDB(res); err != nil {
		return err
	}
	if err := probeIdd(res); err != nil {
		return err
	}
	return probePasshash(res)
}

// probeRTT times request→response round trips against the bench-owned echo
// process sitting directly on netd — the socket engine and a netd shard,
// nothing else of the stack — for d, and returns the median in µs.
func probeRTT(addr string, keepAlive bool, d time.Duration, tl *tally) float64 {
	w := newWire(addr)
	defer w.close()
	rq := request{raw: rawRequest("/echo?n=11", 0, true), want: echoBody}
	var lat []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		if tl.do(w, rq, keepAlive) {
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(lat)
}
