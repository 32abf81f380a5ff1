package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/netd"
	"asbestos/internal/okws"
	"asbestos/internal/stats"
)

// probePort is the simulated port the bench-owned netd echo process
// listens on in traced runs, beside the stack's port 80.
const probePort = 81

// span is a traced section's accumulated time and call count.
type span struct {
	ns atomic.Int64
	n  atomic.Int64
}

func (s *span) since(t0 time.Time) {
	s.ns.Add(int64(time.Since(t0)))
	s.n.Add(1)
}

func (s *span) report() spanReport { return spanReport{NS: s.ns.Load(), N: s.n.Load()} }

type spanReport struct {
	NS int64 `json:"ns"`
	N  int64 `json:"n"`
}

// server is the system under test: the full OKWS stack on a loopback TCP
// listener, plus — traced runs only — the Figure 9 profiler, spans around
// the service handlers and their database calls, and a bench-owned echo
// process sitting directly on netd.
type server struct {
	srv   *okws.Server
	addr  string
	probe string // address of the netd echo process's listener ("" untraced)
	trace bool
	prof  *stats.Profiler

	bootHeap  uint64  // HeapInuse after boot and account provisioning, post-GC
	bootPages float64 // System.MemStats pages at the same point
	poolBase  int64   // payload-pool outstanding at the last quiesced report

	handler, qRead, qScan, qWrite span
	scanRows                      atomic.Int64 // rows /store scans handed to the handler

	peakGoroutines atomic.Int64
	stopSampler    chan struct{}
	samplerDone    chan struct{}
	probeCancel    context.CancelFunc
	probeDone      chan struct{}
}

// report is everything the parent reads from the server: cumulative
// counters it differences over a window, and point-in-time gauges.
type report struct {
	CPUMicros    int64             `json:"cpu_us"` // user+sys of the server process
	HeapInuse    uint64            `json:"heap_inuse"`
	BootHeap     uint64            `json:"boot_heap"`
	BootPages    float64           `json:"boot_pages"`
	Mallocs      uint64            `json:"mallocs"`
	AllocBytes   uint64            `json:"alloc_bytes"`
	GCPauseNS    uint64            `json:"gc_pause_ns"`
	Goroutines   int64             `json:"goroutines_peak"`
	Sessions     int               `json:"sessions"`
	MemPages     float64           `json:"mem_pages"`
	CacheHits    uint64            `json:"opcache_hits"`
	CacheMisses  uint64            `json:"opcache_misses"`
	Drops        uint64            `json:"drops"`
	DropsByClass map[string]uint64 `json:"drops_by_class"`
	NotesRows    int               `json:"notes_rows"`
	PoolOut      int64             `json:"pool_outstanding"`
	ScanRows     int64             `json:"scan_rows"`

	Handler spanReport `json:"handler"`
	QRead   spanReport `json:"q_read"`
	QScan   spanReport `json:"q_scan"`
	QWrite  spanReport `json:"q_write"`
	// Prof is the Figure 9 cut, by stats.Category name. Spans nest (an
	// event-loop dispatch contains the kernel sends it makes), so the
	// categories are inclusive and do not sum to wall time.
	Prof map[string]spanReport `json:"prof"`
}

// leaks is the shutdown verdict. PoolGrowth is payload buffers drawn and
// not returned since the last quiesced report. The pool's ledger is
// one-sided — buffers handed over with their message are returned without
// ever having been drawn, so the figure runs negative under load — which
// leaves a leak visible only as growth; the slack is the chaos suite's.
type leaks struct {
	PoolGrowth int64 `json:"pool_growth"`
	DemuxConns int   `json:"demux_conns"`
}

const poolSlack = 8

func (l leaks) err() error {
	if l.PoolGrowth > poolSlack || l.DemuxConns != 0 {
		return fmt.Errorf("leak at shutdown: payload pool grew by %d, demux tracks %d connections", l.PoolGrowth, l.DemuxConns)
	}
	return nil
}

// boot launches the stack for w and provisions its accounts.
func boot(w workload, trace bool) (*server, error) {
	s := &server{trace: trace}
	cfg := okws.Config{
		Seed:   1,
		Shards: 2,
		Services: []okws.Service{
			{Name: "echo", Handler: s.traced(echoHandler), EphemeralSessions: w.cold},
			{Name: "store", Handler: s.traced(s.storeHandler)},
		},
	}
	if w.cold {
		cfg.IDCacheCap = 1
		cfg.IddOptions = idd.Options{CacheCap: 1}
	}
	if trace {
		s.prof = stats.NewProfiler()
		cfg.Profiler = s.prof
	}
	srv, err := okws.Launch(cfg)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if _, err := srv.Database.Exec("CREATE TABLE notes (k, d, _uid)"); err != nil {
		srv.Stop()
		return nil, err
	}
	for u := 0; u < w.users; u++ {
		if err := srv.AddUser(userName(u), userPass(u), fmt.Sprint(1000+u)); err != nil {
			srv.Stop()
			return nil, err
		}
	}
	ln, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	s.addr = ln.Addr().String()
	if trace {
		if err := s.startProbe(); err != nil {
			srv.Stop()
			return nil, err
		}
		s.stopSampler, s.samplerDone = make(chan struct{}), make(chan struct{})
		go s.sampleGoroutines()
	}
	s.bootHeap = heapInuse()
	s.bootPages = srv.Sys.MemStats().TotalPages()
	return s, nil
}

func poolOutstanding() int64 {
	ps := kernel.PayloadPoolStats()
	return int64(ps.Drawn) - int64(ps.Returned)
}

// collect runs the collector twice: sync.Pool contents survive one cycle in
// the victim cache, and pooled buffers are not live heap.
func collect() {
	runtime.GC()
	runtime.GC()
}

func heapInuse() uint64 {
	collect()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

func (s *server) sampleGoroutines() {
	defer close(s.samplerDone)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSampler:
			return
		case <-tick.C:
			if g := int64(runtime.NumGoroutine()); g > s.peakGoroutines.Load() {
				s.peakGoroutines.Store(g)
			}
		}
	}
}

// traced wraps a service handler in the okws.handler_us span.
func (s *server) traced(h okws.Handler) okws.Handler {
	return func(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
		if !s.trace {
			return h(c, req)
		}
		defer s.handler.since(time.Now())
		return h(c, req)
	}
}

// echoHandler is the paper's §9.2 throughput service: n body bytes, 144
// bytes of HTTP at n=11.
func echoHandler(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
	n := 11
	fmt.Sscanf(req.Query["n"], "%d", &n)
	body := make([]byte, n)
	for i := range body {
		body[i] = 'x'
	}
	return &httpmsg.Response{Status: 200, Body: body}
}

// query is Ctx.Query inside a dbproxy.query_us span.
func (s *server) query(sp *span, c *okws.Ctx, sql string, args ...string) ([][]string, error) {
	if s.trace {
		defer sp.since(time.Now())
	}
	return c.Query(sql, args...)
}

// storeHandler serves the store.mixed operations on the shared notes
// table: op=r point read, op=s scan, op=w update, op=i insert (set-up).
func (s *server) storeHandler(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
	var (
		rows [][]string
		err  error
	)
	k, d := req.Query["k"], req.Query["d"]
	switch req.Query["op"] {
	case "r":
		rows, err = s.query(&s.qRead, c, "SELECT d FROM notes WHERE k = ?", k)
	case "s":
		rows, err = s.query(&s.qScan, c, "SELECT k FROM notes")
		s.scanRows.Add(int64(len(rows)))
	case "w":
		_, err = s.query(&s.qWrite, c, "UPDATE notes SET d = ? WHERE k = ?", d, k)
	case "i":
		_, err = c.Query("INSERT INTO notes (k, d) VALUES (?, ?)", k, d)
	default:
		return &httpmsg.Response{Status: 400}
	}
	if err != nil {
		return &httpmsg.Response{Status: 500, Body: []byte(err.Error())}
	}
	if rows == nil {
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}
	}
	var body []byte
	for _, r := range rows {
		body = append(body, r[0]...)
		body = append(body, '\n')
	}
	return &httpmsg.Response{Status: 200, Body: body}
}

// startProbe runs the netd.rtt_us probe's server side: a process that
// speaks netd's protocol directly (Listen, Read, Write, Control), with no
// demux, idd or worker between it and the socket, answering every request
// with the same 144-byte response /echo?n=11 produces.
func (s *server) startProbe() error {
	p := s.srv.Sys.NewProcess("bench-echo")
	notify, reply := p.Open(nil), p.Open(nil)
	if err := netd.Listen(p.Port(s.srv.Netd.ServicePort()), probePort, notify.Handle()); err != nil {
		return err
	}
	ln, err := s.srv.Netd.ListenTCPConfig("127.0.0.1:0", probePort, netd.TCPConfig{})
	if err != nil {
		return err
	}
	s.probe = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.probeCancel, s.probeDone = cancel, make(chan struct{})
	go func() {
		defer close(s.probeDone)
		defer p.Exit()
		for {
			d, err := notify.Recv(ctx)
			if err != nil {
				return
			}
			n, ok := netd.ParseNotify(d)
			d.Release()
			if ok {
				probeConn(ctx, p, reply, n.ConnPort)
			}
		}
	}()
	return nil
}

// probeConn serves one probe connection until the client closes it: the
// probe client is a closed loop of one, so serving inline loses nothing.
func probeConn(ctx context.Context, p *kernel.Process, reply *kernel.Port, connH handle.Handle) {
	conn := p.Port(connH)
	defer p.DropPrivilege(connH, label.L1)
	resp := httpmsg.FormatResponse(200, map[string]string{"connection": "keep-alive"}, echoBody)
	await := func() (*kernel.Delivery, bool) {
		d, err := reply.Recv(ctx)
		return d, err == nil
	}
	for {
		if netd.Read(conn, reply.Handle(), 4096) != nil {
			return
		}
		d, ok := await()
		if !ok {
			return
		}
		rr, ok := netd.ParseReadReply(d)
		d.Release()
		if !ok || rr.EOF || len(rr.Data) == 0 {
			if netd.Control(conn, reply.Handle(), netd.CtlClose) == nil {
				if d, ok := await(); ok {
					d.Release()
				}
			}
			return
		}
		if netd.Write(conn, reply.Handle(), resp) != nil {
			return
		}
		if d, ok = await(); !ok {
			return
		}
		d.Release()
	}
}

// Report snapshots the server. With gc it collects first, so HeapInuse is
// live heap rather than live heap plus garbage.
func (s *server) Report(gc bool) (report, error) {
	if gc {
		collect()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cs := label.CacheStats()
	r := report{
		CPUMicros:    cpuMicros(),
		HeapInuse:    m.HeapInuse,
		BootHeap:     s.bootHeap,
		BootPages:    s.bootPages,
		Mallocs:      m.Mallocs,
		AllocBytes:   m.TotalAlloc,
		GCPauseNS:    m.PauseTotalNs,
		Goroutines:   s.peakGoroutines.Load(),
		Sessions:     s.srv.Demux.SessionCount(),
		CacheHits:    cs.Hits(),
		CacheMisses:  cs.Misses(),
		Drops:        s.srv.Sys.Drops(),
		DropsByClass: s.srv.Sys.DropStats(),
		ScanRows:     s.scanRows.Load(),
		PoolOut:      poolOutstanding(),
		Handler:      s.handler.report(),
		QRead:        s.qRead.report(),
		QScan:        s.qScan.report(),
		QWrite:       s.qWrite.report(),
	}
	if gc {
		// The Figure 6 walk locks every process in turn; only the quiesced
		// snapshots (after set-up, at shutdown) pay for it.
		r.MemPages = s.srv.Sys.MemStats().TotalPages()
		s.poolBase = r.PoolOut
		if res, err := s.srv.Database.Exec("SELECT k FROM notes"); err == nil {
			r.NotesRows = len(res.Rows)
		}
	}
	if s.prof != nil {
		r.Prof = map[string]spanReport{}
		for _, c := range stats.Categories() {
			r.Prof[c.String()] = spanReport{NS: int64(s.prof.Total(c)), N: s.prof.Count(c)}
		}
	}
	return r, nil
}

func (s *server) Addr() string      { return s.addr }
func (s *server) ProbeAddr() string { return s.probe }

// Shutdown runs the leak checks against the quiesced stack — the client
// has closed every connection — and then stops it.
func (s *server) Shutdown() (leaks, error) {
	var l leaks
	// Teardown of the client's last closes is asynchronous (netd EOF →
	// worker close → demux release); give it a bounded moment to settle.
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		l = leaks{PoolGrowth: poolOutstanding() - s.poolBase, DemuxConns: s.srv.Demux.ConnCount()}
		if l.err() == nil || time.Now().After(deadline) {
			break
		}
	}
	if s.trace {
		close(s.stopSampler)
		<-s.samplerDone
		s.probeCancel()
		<-s.probeDone
	}
	s.srv.Stop()
	return l, l.err()
}

// serveChild is the -serve half: boot, announce, then answer one JSON line
// per command line on stdin until it closes. Stdin closing is also how a
// parent that died takes its child with it.
func serveChild(w workload, trace bool) error {
	s, err := boot(w, trace)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]string{"addr": s.addr, "probe": s.probe}); err != nil {
		return err
	}
	in := bufio.NewReader(os.Stdin)
	for {
		line, err := in.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				return err
			}
			break
		}
		r, _ := s.Report(strings.TrimSpace(line) == "gcreport")
		if err := out.Encode(r); err != nil {
			return err
		}
	}
	l, err := s.Shutdown()
	if encErr := out.Encode(l); encErr != nil {
		return encErr
	}
	return err
}
