// Repository-level benchmarks: one per table/figure of the paper's
// evaluation (§9). Each benchmark runs a scaled version of the experiment
// and reports the figure's metric via b.ReportMetric; the cmd/ binaries run
// the full paper-scale sweeps.
package asbestos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/dbproxy"
	"asbestos/internal/experiments"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/netd"
	"asbestos/internal/okws"
	"asbestos/internal/stats"
	"asbestos/internal/workload"
)

// BenchmarkFig6MemoryPerSession reproduces Figure 6: memory per cached and
// active session (paper: ≈1.5 pages cached, ≈+8 active).
func BenchmarkFig6MemoryPerSession(b *testing.B) {
	for _, variant := range []struct {
		name   string
		active bool
	}{{"cached", false}, {"active", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure6([]int{200}, variant.active, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0].PagesPerSession
			}
			b.ReportMetric(last, "pages/session")
		})
	}
}

// BenchmarkFig7Throughput reproduces Figure 7: conns/sec for OKWS at
// several cached-session counts plus the two Apache baselines.
func BenchmarkFig7Throughput(b *testing.B) {
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("OKWS/sessions=%d", n), func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure7OKWS([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				if rows[0].Errors > 0 {
					b.Fatalf("%d errors", rows[0].Errors)
				}
				cps = rows[0].ConnsPerSec
			}
			b.ReportMetric(cps, "conns/sec")
		})
	}
	for _, name := range []string{"Apache", "Mod-Apache"} {
		b.Run(name, func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				for _, r := range experiments.Figure7Baselines(500) {
					if r.Label == name {
						cps = r.ConnsPerSec
					}
				}
			}
			b.ReportMetric(cps, "conns/sec")
		})
	}
}

// BenchmarkFig7ThroughputParallel is the multicore companion to
// BenchmarkFig7Throughput: the echo service is replicated across one worker
// process per available core (round-robin user sharding, sessions pinned),
// and b.RunParallel drives one client per core. The shards sub-dimension
// compares the trusted services (ok-demux, netd, ok-dbproxy) as one event
// loop each (shards=1, the paper's architecture) against one loop per core
// (shards=N) — the headline shards=1 vs N number, recorded in CHANGES.md in
// the entry that sharded the trusted event loops N-way. On ≥4 cores the
// fully sharded stack should deliver well over 1.5× the serial figure,
// since neither the kernel monitor nor any single trusted event loop
// serializes the request stream.
func BenchmarkFig7ThroughputParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	shardCounts := []int{1, workers}
	if workers == 1 {
		// One core: still exercise the sharded configuration (2 loops) so
		// the comparison exists everywhere.
		shardCounts = []int{1, 2}
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			echo := func(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
				n := 11
				fmt.Sscanf(req.Query["n"], "%d", &n)
				return &httpmsg.Response{Status: 200, Body: make([]byte, n)}
			}
			srv, err := okws.Launch(okws.Config{
				Seed:     42,
				Shards:   shards,
				Services: []okws.Service{{Name: "echo", Handler: echo, Replicas: workers}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Stop()
			// One user per client goroutine (plus slack) so concurrent
			// requests never contend for the same session's event process.
			users := make([]struct{ user, pass string }, 4*workers)
			for i := range users {
				users[i].user = fmt.Sprintf("pu%04d", i)
				users[i].pass = fmt.Sprintf("pp%04d", i)
				if err := srv.AddUser(users[i].user, users[i].pass, fmt.Sprintf("%d", 20000+i)); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the stack before the clock starts: one request per
			// user establishes every session (Figure 7 measures CACHED
			// sessions) and pulls first-connection costs — logins,
			// handle allocation, lazy runtime growth
			// — out of the timed region, so the shards=1/N sub-benchmarks
			// compare loop layout rather than process warmup order.
			for _, u := range users {
				resp, err := workload.Get(srv.Network(), 80, u.user, u.pass, "/echo?n=11")
				if err != nil || resp.Status != 200 {
					b.Fatalf("warmup for %s: %+v %v", u.user, resp, err)
				}
			}
			var nextUser, failures atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				u := users[int(nextUser.Add(1))%len(users)]
				for pb.Next() {
					resp, err := workload.Get(srv.Network(), 80, u.user, u.pass, "/echo?n=11")
					if err != nil || resp.Status != 200 {
						failures.Add(1)
					}
				}
			})
			b.StopTimer()
			if n := failures.Load(); n > 0 {
				b.Fatalf("%d failed connections", n)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "conns/sec")
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(float64(shards), "shards")
		})
	}
}

// BenchmarkFig7TransportAB prices the real-socket front end against the
// simulated wire it plugs in beside: the same Figure 7 echo workload (64
// users × 4 keep-alive requests, request concurrency 16) is driven over
// the in-memory Network and over loopback TCP through the epoll poller,
// against identically provisioned stacks that both stay up for the whole
// run. The legs alternate in short segments inside one window, so machine
// drift lands on both transports. The tcp figure is the honest one for any
// real-deployment claim: simulated÷tcp is the price of syscalls and
// loopback traversal. Linux only (netd.ErrTCPUnsupported elsewhere).
func BenchmarkFig7TransportAB(b *testing.B) {
	var row experiments.Fig7ABRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.Figure7TransportAB(64)
		if errors.Is(err, netd.ErrTCPUnsupported) {
			b.Skip(err)
		}
		if err != nil {
			b.Fatal(err)
		}
		if row.Simulated.Errors > 0 || row.TCP.Errors > 0 {
			b.Fatalf("errors: simulated %d, tcp %d", row.Simulated.Errors, row.TCP.Errors)
		}
	}
	b.ReportMetric(row.Simulated.ConnsPerSec, "conns/sec_simulated")
	b.ReportMetric(row.TCP.ConnsPerSec, "conns/sec_tcp")
}

// BenchmarkSendBatch measures the amortization the batched-send syscall
// buys on the sender side: per-message cost of enqueuing b.N messages to
// one port in batches of 1, 8 and 64. One sender-side label check, one port
// lookup, one CAS and at most one receiver wakeup per batch — so ns/msg
// falls as the batch grows. The queue is drained off-clock whenever it
// fills, so the metric is the send syscall path alone.
func BenchmarkSendBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			const backlog = 1 << 14
			sys := kernel.NewSystem(kernel.WithSeed(1), kernel.WithQueueLimit(backlog+64))
			recv := sys.NewProcess("rx")
			port := recv.Open(nil).Handle()
			if err := recv.SetPortLabel(port, label.Empty(label.L3)); err != nil {
				b.Fatal(err)
			}
			sender := sys.NewProcess("tx")
			payload := make([]byte, 16)
			entries := make([]kernel.BatchEntry, batch)
			for i := range entries {
				entries[i] = kernel.BatchEntry{Data: payload}
			}
			drain := func() {
				for {
					d, err := recv.TryRecv()
					if err != nil {
						b.Fatal(err)
					}
					if d == nil {
						return
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			sent := 0
			for i := 0; i < b.N; i += batch {
				if err := sender.Port(port).SendBatch(entries); err != nil {
					b.Fatal(err)
				}
				sent += batch
				if recv.QueueLen() >= backlog {
					b.StopTimer()
					drain()
					b.StartTimer()
				}
			}
			b.StopTimer()
			drain()
			// Divide by messages actually sent: the loop rounds b.N up to a
			// whole number of batches, which matters at small -benchtime.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sent), "ns/msg")
			recv.Exit()
		})
	}
}

// BenchmarkPortSend measures the cached-route fast path: one sender
// spraying a port through a bound Port endpoint (vnode resolved once)
// versus the v1 handle-based Process.Send (handle-table shard lookup per
// call). The two variants alternate in short segments inside ONE bench
// window — not separate sub-benchmarks — so frequency scaling, GC
// pacing, and background load hit both sides equally; each side's rate is
// reported from its own accumulated clock. The queue is drained
// off-clock, so the metrics isolate the send syscall.
func BenchmarkPortSend(b *testing.B) {
	const backlog = 1 << 14
	// At least four alternations per side whatever b.N is, capped so long
	// runs still swap often enough to share machine drift.
	segment := b.N / 8
	if segment > 256 {
		segment = 256
	}
	if segment < 1 {
		segment = 1
	}
	sys := kernel.NewSystem(kernel.WithSeed(3), kernel.WithQueueLimit(backlog+64))
	recv := sys.NewProcess("rx")
	inbox := recv.Open(nil)
	if err := inbox.SetLabel(label.Empty(label.L3)); err != nil {
		b.Fatal(err)
	}
	sender := sys.NewProcess("tx")
	out := sender.Port(inbox.Handle())
	payload := make([]byte, 16)
	drain := func() {
		for {
			d, err := recv.TryRecv()
			if err != nil {
				b.Fatal(err)
			}
			if d == nil {
				return
			}
		}
	}
	var (
		endpointNs, handleNs time.Duration
		endpointN, handleN   int
	)
	cached := false
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := segment
		if rest := b.N - done; rest < n {
			n = rest
		}
		t0 := time.Now()
		if cached {
			for i := 0; i < n; i++ {
				if err := out.Send(payload, nil); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				if err := sender.Port(inbox.Handle()).Send(payload, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		seg := time.Since(t0)
		if cached {
			endpointNs += seg
			endpointN += n
		} else {
			handleNs += seg
			handleN += n
		}
		cached = !cached
		done += n
		if recv.QueueLen() >= backlog {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
	}
	b.StopTimer()
	drain()
	recv.Exit()
	if endpointN > 0 {
		b.ReportMetric(float64(endpointNs.Nanoseconds())/float64(endpointN), "ns/op_endpoint")
	}
	if handleN > 0 {
		b.ReportMetric(float64(handleNs.Nanoseconds())/float64(handleN), "ns/op_handle")
	}
}

// BenchmarkFig8Latency reproduces the Figure 8 table: median and 90th
// percentile latency at client concurrency 4.
func BenchmarkFig8Latency(b *testing.B) {
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure8(400, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Median, "median_µs_"+sanitize(r.Server))
		b.ReportMetric(r.P90, "p90_µs_"+sanitize(r.Server))
	}
}

// BenchmarkFig9LabelCost reproduces Figure 9: per-component
// Kcycles/connection as cached sessions grow.
func BenchmarkFig9LabelCost(b *testing.B) {
	for _, n := range []int{1, 200, 1000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			var row experiments.Fig9Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure9([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			for _, c := range stats.Categories() {
				b.ReportMetric(row.Kcycles[c], "Kcyc_"+sanitize(c.String()))
			}
			b.ReportMetric(row.Total, "Kcyc_total")
		})
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkLoginPath measures one idd login round trip in its three regimes:
//
//   - cold: every attempt misses the identity cache (CacheCap 1, users
//     cycled), paying the ok-dbproxy round trip plus the Argon2id verify;
//   - cached: one user logging in repeatedly — the hash is verified locally
//     against the cached entry, no database traffic at all;
//   - backedoff: a locked-out username under a wrong-password flood — idd
//     does no verification work and defers/drops the verdicts, so this
//     bounds what a credential-stuffing attacker can make idd spend.
//
// The cached÷cold and backedoff÷cached ratios are the figure of merit, not
// the absolute numbers.
func BenchmarkLoginPath(b *testing.B) {
	const userCount = 256
	boot := func(b *testing.B, cacheCap int, ladder []idd.BackoffRung) (*kernel.System, *idd.Idd, func()) {
		sys := kernel.NewSystem(kernel.WithSeed(42))
		proxy := dbproxy.New(sys, db.Open())
		iddSrv := idd.NewOpts(sys, proxy, idd.Options{CacheCap: cacheCap, Ladder: ladder})
		go proxy.Run()
		go iddSrv.Run()
		admin := sys.NewProcess("bench-admin")
		reply := admin.Open(nil)
		adminPort, _ := sys.Env(idd.EnvAdminPort)
		for i := 0; i < userCount; i++ {
			user := fmt.Sprintf("lu%04d", i)
			if err := idd.AddUser(admin.Port(adminPort), user, "pw-"+user, fmt.Sprintf("%d", 30000+i), reply.Handle()); err != nil {
				b.Fatal(err)
			}
			d, err := reply.Recv(context.Background())
			if err != nil || d == nil {
				b.Fatalf("add user: %v", err)
			}
			if !idd.ParseAddUserReply(d) {
				b.Fatalf("add %s rejected", user)
			}
		}
		return sys, iddSrv, func() { iddSrv.Stop(); proxy.Stop() }
	}
	login := func(b *testing.B, sys *kernel.System, client *kernel.Process, reply *kernel.Port, tok uint64, user, pass string, wantOK bool) {
		port, _ := sys.Env(idd.EnvLoginPort)
		if err := idd.Login(client.Port(port), tok, user, pass, reply.Handle()); err != nil {
			b.Fatal(err)
		}
		for {
			d, err := reply.Recv(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			_, gotTok, ok := idd.ParseLoginReply(d)
			if gotTok != tok {
				continue // stale deferred verdict from an earlier lockout
			}
			if ok != wantOK {
				b.Fatalf("login %s: ok=%v, want %v", user, ok, wantOK)
			}
			return
		}
	}

	b.Run("cold", func(b *testing.B) {
		// CacheCap 1 with cycled users: every login is a cache miss.
		sys, _, stop := boot(b, 1, []idd.BackoffRung{})
		defer stop()
		client := sys.NewProcess("bench-client")
		reply := client.Open(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			user := fmt.Sprintf("lu%04d", i%userCount)
			login(b, sys, client, reply, uint64(i+1), user, "pw-"+user, true)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "logins/sec")
	})

	b.Run("cached", func(b *testing.B) {
		sys, _, stop := boot(b, 0, []idd.BackoffRung{})
		defer stop()
		client := sys.NewProcess("bench-client")
		reply := client.Open(nil)
		login(b, sys, client, reply, 1, "lu0000", "pw-lu0000", true) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			login(b, sys, client, reply, uint64(i+2), "lu0000", "pw-lu0000", true)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "logins/sec")
	})

	b.Run("backedoff", func(b *testing.B) {
		// Lock lu0001 out far past the benchmark's horizon, then flood it
		// with wrong passwords: each attempt is deferred or dropped without
		// any hashing. A cached good login of ANOTHER user every few
		// iterations forces a full round trip through the same shard, so the
		// loop measures processed sends rather than a growing mailbox.
		sys, _, stop := boot(b, 0, []idd.BackoffRung{{Fails: 2, Delay: time.Hour}})
		defer stop()
		client := sys.NewProcess("bench-client")
		reply := client.Open(nil)
		login(b, sys, client, reply, 1, "lu0000", "pw-lu0000", true) // warm the sync user
		// Climb to the rung: these two failures still get immediate verdicts
		// (the lockout arms ON the second failure, so only later attempts
		// are deferred).
		for i := 0; i < 2; i++ {
			login(b, sys, client, reply, uint64(i+2), "lu0001", "WRONG", false)
		}
		port, _ := sys.Env(idd.EnvLoginPort)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idd.Login(client.Port(port), uint64(i+10), "lu0001", "WRONG", reply.Handle()); err != nil {
				b.Fatal(err)
			}
			if i%16 == 15 {
				login(b, sys, client, reply, uint64(b.N+i+10), "lu0000", "pw-lu0000", true)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "logins/sec")
	})
}

// BenchmarkForkVsEventProcess quantifies §6's motivating comparison: memory
// for N isolated users under the forked-process model versus event
// processes.
func BenchmarkForkVsEventProcess(b *testing.B) {
	var row experiments.ForkVsEPRow
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ForkVsEventProcess([]int{100}, 64)
		if err != nil {
			b.Fatal(err)
		}
		row = rows[0]
	}
	b.ReportMetric(row.PagesPerForked, "pages/user_forked")
	b.ReportMetric(row.PagesPerEventPro, "pages/user_eventproc")
}
