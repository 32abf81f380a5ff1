// Package experiments regenerates every table and figure of the paper's
// evaluation (§9). Each Figure* function builds the workload from scratch,
// runs it against the OKWS stack (and the Apache baselines where the paper
// compares), and returns the same rows/series the paper plots:
//
//	Figure 6 — memory used by active and cached Web sessions
//	Figure 7 — throughput vs number of cached sessions, with baselines
//	Figure 8 — median and 90th-percentile latency table
//	Figure 9 — per-component Kcycles/connection vs cached sessions
//
// The cmd/ binaries and the repository-level benchmarks are thin wrappers
// over these functions.
package experiments

import (
	"fmt"
	"time"

	"asbestos/internal/baseline"
	"asbestos/internal/httpmsg"
	"asbestos/internal/label"
	"asbestos/internal/okws"
	"asbestos/internal/stats"
	"asbestos/internal/workload"
)

// DefaultSessions is the paper's Figure 7/9 x-axis.
var DefaultSessions = []int{1, 100, 1000, 3000, 5000, 7500, 10000}

// ConnsPerSession matches §9.2.1: "each user connected to its session
// exactly four times".
const ConnsPerSession = 4

// OKWSConcurrency and ApacheConcurrency are the sweet spots the paper
// reports (§9.2.1): 16 for OKWS and Mod-Apache, 400 for Apache.
const (
	OKWSConcurrency    = 16
	ApacheConcurrency  = 400
	ModConcurrency     = 16
	LatencyConcurrency = 4 // §9.2.2
)

// storeHandler is the Figure 6 toy service: it stores ~1 KB from the
// request and returns the previous value ("stores data from a user's HTTP
// request and returns it to the user in the subsequent request", §9.1).
func storeHandler(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
	prev := c.SessionLoad()
	if d, ok := req.Query["d"]; ok {
		c.SessionStore([]byte(d))
	}
	return &httpmsg.Response{Status: 200, Body: prev}
}

// echoHandler is the §9.2 throughput service: it "responds with a string of
// characters whose length depends on the client's parameters". The paper's
// runs return 144 bytes of HTTP data, 133 of which are headers — 11 body
// bytes.
func echoHandler(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
	n := 11
	fmt.Sscanf(req.Query["n"], "%d", &n)
	body := make([]byte, n)
	for i := range body {
		body[i] = 'x'
	}
	return &httpmsg.Response{Status: 200, Body: body}
}

// baselineHandler is the same service for the Apache models.
func baselineHandler(req *httpmsg.Request) *httpmsg.Response {
	n := 11
	fmt.Sscanf(req.Query["n"], "%d", &n)
	body := make([]byte, n)
	for i := range body {
		body[i] = 'x'
	}
	return &httpmsg.Response{Status: 200, Body: body}
}

// users builds n workload credentials.
func users(n int) []workload.Credentials {
	out := make([]workload.Credentials, n)
	for i := range out {
		out[i] = workload.Credentials{
			User: fmt.Sprintf("u%06d", i),
			Pass: fmt.Sprintf("p%06d", i),
		}
	}
	return out
}

// provision boots an OKWS server with the given services and n accounts,
// each trusted service running the given number of shards. Figures 6–9
// run single-shard: they reproduce the paper's single-process services,
// and the shape assertions (label growth, per-component cycles) are
// statements about that configuration. Figure7OKWSParallel and the
// parallel benchmark measure the sharded stack.
func provision(n, shards int, prof *stats.Profiler, services ...okws.Service) (*okws.Server, []workload.Credentials, error) {
	srv, err := okws.Launch(okws.Config{Seed: 42, Shards: shards,
		Profiler: prof, Services: services})
	if err != nil {
		return nil, nil, err
	}
	return seedUsers(srv, n)
}

// seedUsers provisions n accounts on a freshly launched server.
func seedUsers(srv *okws.Server, n int) (*okws.Server, []workload.Credentials, error) {
	us := users(n)
	for i, u := range us {
		if err := srv.AddUser(u.User, u.Pass, fmt.Sprintf("%d", 10000+i)); err != nil {
			srv.Stop()
			return nil, nil, err
		}
	}
	return srv, us, nil
}

// --- Figure 6: memory per session ---

// Fig6Row is one point of Figure 6.
type Fig6Row struct {
	Sessions        int
	Active          bool
	TotalPages      float64
	PagesPerSession float64
}

// Figure6 measures total memory (kernel + user, in 4 KiB pages) after
// creating the given numbers of sessions. active reproduces the worst-case
// variant whose worker never calls ep_clean (§9.1).
func Figure6(sessionCounts []int, active bool, kb int) ([]Fig6Row, error) {
	var rows []Fig6Row
	payload := make([]byte, kb*1024/2) // query-encoded; each byte ~1 char
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	for _, n := range sessionCounts {
		srv, us, err := provision(n, 1, nil, okws.Service{
			Name: "store", Handler: storeHandler, NoClean: active,
		})
		if err != nil {
			return nil, err
		}
		base := srv.Sys.MemStats()
		// One request per user creates one cached session each.
		for _, u := range us {
			resp, err := workload.Get(srv.Network(), 80, u.User, u.Pass,
				"/store?d="+string(payload))
			if err != nil || resp.Status != 200 {
				srv.Stop()
				return nil, fmt.Errorf("figure6: request for %s failed: %v", u.User, err)
			}
		}
		grown := srv.Sys.MemStats()
		total := grown.TotalPages() - base.TotalPages()
		rows = append(rows, Fig6Row{
			Sessions:        n,
			Active:          active,
			TotalPages:      grown.TotalPages(),
			PagesPerSession: total / float64(n),
		})
		srv.Stop()
	}
	return rows, nil
}

// --- Figure 7: throughput ---

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	Label       string
	Sessions    int // 0 for baselines
	ConnsPerSec float64
	Errors      int
}

// Figure7OKWS measures OKWS throughput for each cached-session count.
func Figure7OKWS(sessionCounts []int) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, n := range sessionCounts {
		srv, us, err := provision(n, 1, nil, okws.Service{Name: "echo", Handler: echoHandler})
		if err != nil {
			return nil, err
		}
		reqs := workload.SessionWorkload(us, "/echo?n=11", ConnsPerSession)
		res := workload.Run(srv.Network(), 80, reqs, OKWSConcurrency)
		rows = append(rows, Fig7Row{
			Label:       fmt.Sprintf("OKWS %d", n),
			Sessions:    n,
			ConnsPerSec: res.ConnsPerSec(),
			Errors:      res.Errors + res.BadStatus,
		})
		srv.Stop()
	}
	return rows, nil
}

// Figure7OKWSParallel measures OKWS throughput with the service replicated
// across `workers` truly parallel worker processes AND the trusted
// single-process services sharded `workers` ways — the multicore scenario
// the sharded kernel exists for. The client concurrency scales with the
// replica count so every worker has requests in flight.
func Figure7OKWSParallel(sessionCounts []int, workers int) ([]Fig7Row, error) {
	if workers < 1 {
		workers = 1
	}
	var rows []Fig7Row
	for _, n := range sessionCounts {
		srv, us, err := provision(n, workers, nil, okws.Service{
			Name: "echo", Handler: echoHandler, Replicas: workers,
		})
		if err != nil {
			return nil, err
		}
		reqs := workload.SessionWorkload(us, "/echo?n=11", ConnsPerSession)
		res := workload.Run(srv.Network(), 80, reqs, OKWSConcurrency*workers)
		rows = append(rows, Fig7Row{
			Label:       fmt.Sprintf("OKWS %d x%dw", n, workers),
			Sessions:    n,
			ConnsPerSec: res.ConnsPerSec(),
			Errors:      res.Errors + res.BadStatus,
		})
		srv.Stop()
	}
	return rows, nil
}

// Fig7ABRow holds one Figure 7 measurement over the netd transports: the
// in-memory simulated wire and loopback TCP through the epoll poller.
type Fig7ABRow struct {
	Sessions  int
	Simulated Fig7Row
	TCP       Fig7Row
}

// abRounds is how many alternating segments each transport gets in
// Figure7TransportAB. Three is enough to spread machine drift (frequency
// scaling, GC pauses, background load) across the legs.
const abRounds = 3

// abLeg accumulates one transport's interleaved segments.
type abLeg struct {
	label   string
	run     func() (done, errs int, elapsed time.Duration)
	done    int
	errs    int
	elapsed time.Duration
}

func (l *abLeg) row(sessions int) Fig7Row {
	r := Fig7Row{Label: l.label, Sessions: sessions, Errors: l.errs}
	if l.elapsed > 0 {
		r.ConnsPerSec = float64(l.done-l.errs) / l.elapsed.Seconds()
	}
	return r
}

// Figure7TransportAB measures the same echo workload — sessions users,
// ConnsPerSession requests each, client concurrency OKWSConcurrency —
// against two identically provisioned stacks that differ only in the
// transport under netd: the in-memory simulated Network every earlier
// Figure 7 number was taken on, and a real loopback TCP socket through the
// epoll poller. One keep-alive TCP request corresponds to one simulated
// connection (the simulated client does connect→request→close), so
// ConnsPerSec is comparable across the legs, and the simulated÷TCP gap
// prices real sockets. Off Linux it returns netd.ErrTCPUnsupported.
//
// Both stacks stay up for the whole measurement and the workload runs as
// abRounds alternating segments (A1 B1 A2 B2 …), so slow drift in the
// machine lands on both transports instead of whichever ran last. The
// first segment of each leg establishes the sessions (logins); that cost
// is identical across legs and cancels in the comparison.
func Figure7TransportAB(sessions int) (Fig7ABRow, error) {
	row := Fig7ABRow{Sessions: sessions}

	simSrv, simUs, err := provision(sessions, 1, nil, okws.Service{Name: "echo", Handler: echoHandler})
	if err != nil {
		return row, err
	}
	defer simSrv.Stop()
	sim := &abLeg{
		label: fmt.Sprintf("OKWS %d simulated", sessions),
		run: func() (int, int, time.Duration) {
			reqs := workload.SessionWorkload(simUs, "/echo?n=11", ConnsPerSession)
			res := workload.Run(simSrv.Network(), 80, reqs, OKWSConcurrency)
			return res.Connections, res.Errors + res.BadStatus, res.Elapsed
		},
	}

	tcpSrv, tcpUs, err := provision(sessions, 1, nil, okws.Service{Name: "echo", Handler: echoHandler})
	if err != nil {
		return row, err
	}
	defer tcpSrv.Stop()
	ln, err := tcpSrv.ListenTCP("127.0.0.1:0")
	if err != nil {
		return row, err
	}
	addr := ln.Addr().String()
	tcp := &abLeg{
		label: fmt.Sprintf("OKWS %d tcp", sessions),
		run: func() (int, int, time.Duration) {
			res := workload.RunTCP(addr, workload.TCPOptions{
				Conns:       sessions,
				ReqsPerConn: ConnsPerSession,
				MaxInflight: OKWSConcurrency,
			}, func(conn, seq int) *httpmsg.Request {
				u := tcpUs[conn%len(tcpUs)]
				return &httpmsg.Request{
					Method:  "GET",
					Path:    "/echo?n=11",
					Headers: map[string]string{"authorization": u.User + " " + u.Pass},
				}
			})
			return res.Requests, res.Errors + res.BadStatus, res.Elapsed
		},
	}

	for round := 0; round < abRounds; round++ {
		for _, l := range []*abLeg{sim, tcp} {
			done, errs, elapsed := l.run()
			l.done += done
			l.errs += errs
			l.elapsed += elapsed
		}
	}

	row.Simulated = sim.row(sessions)
	row.TCP = tcp.row(sessions)
	return row, nil
}

// Figure7Baselines measures the Apache and Mod-Apache bars.
func Figure7Baselines(connections int) []Fig7Row {
	req := &httpmsg.Request{Method: "GET", Path: "/svc",
		Query:   map[string]string{"n": "11"},
		Headers: map[string]string{"authorization": "u p"}}
	apache := baseline.New(baseline.ModCGI, ApacheConcurrency, baselineHandler)
	ra := baseline.Run(apache, req, connections, ApacheConcurrency)
	mod := baseline.New(baseline.ModModule, ModConcurrency, baselineHandler)
	rm := baseline.Run(mod, req, connections, ModConcurrency)
	return []Fig7Row{
		{Label: "Apache", ConnsPerSec: ra.ConnsPerSec()},
		{Label: "Mod-Apache", ConnsPerSec: rm.ConnsPerSec()},
	}
}

// --- Figure 8: latency table ---

// Fig8Row is one row of the Figure 8 table.
type Fig8Row struct {
	Server string
	Median float64 // microseconds
	P90    float64 // microseconds
}

// Figure8 reproduces the latency table at concurrency 4: Mod-Apache,
// Apache, OKWS with 1 session, OKWS with okwsSessions sessions.
func Figure8(connections, okwsSessions int) ([]Fig8Row, error) {
	req := &httpmsg.Request{Method: "GET", Path: "/svc",
		Query:   map[string]string{"n": "11"},
		Headers: map[string]string{"authorization": "u p"}}

	mod := baseline.New(baseline.ModModule, ModConcurrency, baselineHandler)
	rm := baseline.Run(mod, req, connections, LatencyConcurrency)
	apache := baseline.New(baseline.ModCGI, ApacheConcurrency, baselineHandler)
	ra := baseline.Run(apache, req, connections, LatencyConcurrency)

	rows := []Fig8Row{
		{Server: "Mod-Apache", Median: us(rm.Latency.Median()), P90: us(rm.Latency.P90())},
		{Server: "Apache", Median: us(ra.Latency.Median()), P90: us(ra.Latency.P90())},
	}

	for _, n := range []int{1, okwsSessions} {
		srv, usrs, err := provision(n, 1, nil, okws.Service{Name: "echo", Handler: echoHandler})
		if err != nil {
			return nil, err
		}
		reqs := workload.SessionWorkload(usrs, "/echo?n=11", max(1, connections/n))
		res := workload.Run(srv.Network(), 80, reqs, LatencyConcurrency)
		rows = append(rows, Fig8Row{
			Server: fmt.Sprintf("OKWS, %d session(s)", n),
			Median: us(res.Latency.Median()),
			P90:    us(res.Latency.P90()),
		})
		srv.Stop()
	}
	return rows, nil
}

// --- Figure 9: per-component cost ---

// Fig9Row is one x-position of Figure 9: Kcycles/connection by component,
// plus the label op-cache hit rate observed during the run. The label
// curves stay flat where the paper's grow because an operation costs the
// chunks it changes, not the entries it spans; the cache (⊑ results and
// interned single-entry labels) absorbs the repeats on top of that.
type Fig9Row struct {
	Sessions int
	Kcycles  map[stats.Category]float64
	Total    float64

	// CacheHits/CacheMisses are the label op-cache deltas over the run;
	// CacheHitRate = hits/(hits+misses), 0 when no cacheable op survived
	// the fast paths.
	CacheHits    uint64
	CacheMisses  uint64
	CacheHitRate float64

	// Drops breaks the run's silently dropped messages down by the
	// receiving process's port class (kernel.DropStats) — under the §4
	// unreliability contract drops are legal, but a class whose count grows
	// with the sweep is a queue-pressure signal the totals alone hide.
	Drops map[string]uint64
}

// Figure9 sweeps cached-session counts, attributing measured time to the
// paper's five components (OKDB, OKWS, Kernel IPC, Network, Other) and
// expressing it in thousands of nominal 2.8 GHz cycles per connection.
func Figure9(sessionCounts []int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, n := range sessionCounts {
		// The label op-cache is process-global; start each x-position cold
		// so every row measures the same thing regardless of what ran
		// before (the booted kernel below is equally fresh).
		label.ResetOpCache()
		prof := stats.NewProfiler()
		srv, us, err := provision(n, 1, prof, okws.Service{Name: "echo", Handler: echoHandler})
		if err != nil {
			return nil, err
		}
		prof.Reset() // exclude provisioning cost
		cache0 := label.CacheStats()
		drops0 := srv.Sys.DropStats()
		reqs := workload.SessionWorkload(us, "/echo?n=11", ConnsPerSession)
		res := workload.Run(srv.Network(), 80, reqs, OKWSConcurrency)
		cache1 := label.CacheStats()
		drops1 := srv.Sys.DropStats()
		conns := res.Connections - res.Errors
		row := Fig9Row{Sessions: n, Kcycles: make(map[stats.Category]float64)}
		for _, c := range stats.Categories() {
			k := prof.KcyclesPer(c, conns)
			row.Kcycles[c] = k
			row.Total += k
		}
		row.CacheHits = cache1.Hits() - cache0.Hits()
		row.CacheMisses = cache1.Misses() - cache0.Misses()
		if total := row.CacheHits + row.CacheMisses; total > 0 {
			row.CacheHitRate = float64(row.CacheHits) / float64(total)
		}
		row.Drops = make(map[string]uint64)
		for class, n := range drops1 {
			if d := n - drops0[class]; d > 0 {
				row.Drops[class] = d
			}
		}
		rows = append(rows, row)
		srv.Stop()
	}
	return rows, nil
}

func us(d interface{ Microseconds() int64 }) float64 {
	return float64(d.Microseconds())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
