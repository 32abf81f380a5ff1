// Package baseline implements the evaluation's comparison servers (paper
// §9.2): Apache 1.3 with per-request CGI processes, and "Mod-Apache", the
// same service compiled into the server as a module.
//
// The paper runs real Apache on Linux on a 2.8 GHz Pentium 4. We cannot run
// Apache, so this package models its *architecture* on a simulated Unix
// substrate:
//
//   - A prefork pool of worker processes accepts connections.
//   - Module mode handles the request in-process: parse, handler, respond.
//   - CGI mode forks a child per request, execs the CGI binary, streams the
//     request over a pipe, and reaps the child.
//
// Work we can perform for real (HTTP parsing, buffer copies, page-table
// copies, page zeroing, the handler itself) is performed for real. Costs
// bound to 2005-era hardware that cannot be reproduced (fork, exec, context
// switch, syscall entry) are charged as calibrated CPU spins, with the
// constants documented below; EXPERIMENTS.md discusses how this affects the
// absolute numbers. The resulting *architecture ordering* — module fastest,
// CGI slowest, OKWS in between at low session counts — is emergent, not
// scripted.
package baseline

import (
	"sync"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/mem"
	"asbestos/internal/stats"
)

// Costs are the nominal charges for simulated hardware-bound operations,
// roughly lmbench-class numbers for Linux 2.6 on the paper's 2.8 GHz P4.
type Costs struct {
	Fork       time.Duration // process duplication (COW page tables)
	Exec       time.Duration // binary load + VM teardown/rebuild
	CtxSwitch  time.Duration // blocking pipe handoff
	Syscall    time.Duration // kernel entry/exit
	PerPage    time.Duration // per page-table entry copied on fork
	AcceptCost time.Duration // accept + TCP teardown per connection
}

// P4 is the default cost model.
var P4 = Costs{
	Fork:       120 * time.Microsecond,
	Exec:       250 * time.Microsecond,
	CtxSwitch:  5 * time.Microsecond,
	Syscall:    600 * time.Nanosecond,
	PerPage:    30 * time.Nanosecond,
	AcceptCost: 20 * time.Microsecond,
}

// spin consumes CPU for d, modelling time the simulated kernel would burn.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Mode selects the server architecture.
type Mode int

const (
	// ModCGI forks and execs a CGI binary per request (isolation between
	// requests, no user isolation; paper: "Apache").
	ModCGI Mode = iota
	// ModModule runs the handler in-process (no isolation; paper:
	// "Mod-Apache").
	ModModule
)

func (m Mode) String() string {
	if m == ModCGI {
		return "Apache"
	}
	return "Mod-Apache"
}

// Handler is the service logic, same shape as the OKWS toy services.
type Handler func(req *httpmsg.Request) *httpmsg.Response

// httpdResidentPages models the parent httpd's resident set whose page
// table fork must copy.
const httpdResidentPages = 512

// cgiBinaryPages models the CGI binary's text+data loaded by exec.
const cgiBinaryPages = 48

// Server is a simulated Apache instance.
type Server struct {
	mode    Mode
	handler Handler
	costs   Costs

	// pool bounds in-flight requests like the prefork worker pool.
	pool chan struct{}

	// cpu serializes all simulated work: the paper's testbed is a single
	// 2.8 GHz CPU, and the Asbestos emulation is likewise serialized by
	// its kernel monitor, so letting baseline spins run on many host cores
	// would hand the baselines hardware the paper's testbed did not have.
	cpu sync.Mutex

	// parent is the httpd process image; CGI children fork from it.
	parent *unixProc

	mu       sync.Mutex
	forks    int64
	requests int64
}

// unixProc is a simulated Unix process: a page table over real pages.
type unixProc struct {
	space *mem.Space
}

// newHTTPD builds the resident parent image.
func newHTTPD() *unixProc {
	p := &unixProc{space: mem.NewSpace()}
	buf := make([]byte, mem.PageSize)
	for i := 0; i < httpdResidentPages; i++ {
		p.space.WriteAt(mem.Addr(i)*mem.PageSize, buf)
	}
	return p
}

// New builds a server with the default P4 cost model.
func New(mode Mode, poolSize int, h Handler) *Server {
	return NewWithCosts(mode, poolSize, h, P4)
}

// NewWithCosts allows experiments to ablate the cost constants.
func NewWithCosts(mode Mode, poolSize int, h Handler, c Costs) *Server {
	if poolSize < 1 {
		poolSize = 1
	}
	return &Server{
		mode:    mode,
		handler: h,
		costs:   c,
		pool:    make(chan struct{}, poolSize),
		parent:  newHTTPD(),
	}
}

// Forks reports how many child processes have been created (diagnostics).
func (s *Server) Forks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forks
}

// Do serves one connection: the raw request bytes go in, response bytes
// come out, with the architecture's costs charged along the way.
func (s *Server) Do(raw []byte) []byte {
	s.pool <- struct{}{} // wait for a pool worker
	defer func() { <-s.pool }()
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()

	s.cpu.Lock()
	defer s.cpu.Unlock()
	spin(s.costs.AcceptCost)
	spin(s.costs.Syscall) // read(2)

	switch s.mode {
	case ModModule:
		return s.serveModule(raw)
	default:
		return s.serveCGI(raw)
	}
}

func (s *Server) serveModule(raw []byte) []byte {
	req, _, complete, err := httpmsg.ParseRequest(raw)
	if err != nil || !complete {
		return httpmsg.FormatResponse(400, nil, nil)
	}
	resp := s.handler(req)
	spin(s.costs.Syscall) // write(2)
	return httpmsg.FormatResponse(resp.Status, resp.Headers, resp.Body)
}

func (s *Server) serveCGI(raw []byte) []byte {
	// fork(2): duplicate the process — charge the fixed cost plus a real
	// page-table copy proportional to the parent's resident set.
	spin(s.costs.Fork)
	child := &unixProc{space: mem.NewSpace()}
	pages := s.parent.space.PageList()
	spin(time.Duration(len(pages)) * s.costs.PerPage)
	s.mu.Lock()
	s.forks++
	s.mu.Unlock()

	// exec(2): tear down the image, load the CGI binary (real page writes).
	spin(s.costs.Exec)
	zero := make([]byte, mem.PageSize)
	for i := 0; i < cgiBinaryPages; i++ {
		child.space.WriteAt(mem.Addr(i)*mem.PageSize, zero)
	}

	// Parent streams the request to the child over a pipe: one context
	// switch per 4 KiB chunk plus the copy itself.
	var childBuf []byte
	for off := 0; off < len(raw); off += 4096 {
		end := off + 4096
		if end > len(raw) {
			end = len(raw)
		}
		spin(s.costs.Syscall + s.costs.CtxSwitch)
		childBuf = append(childBuf, raw[off:end]...)
	}

	// Child parses and handles the request.
	req, _, complete, err := httpmsg.ParseRequest(childBuf)
	var out []byte
	if err != nil || !complete {
		out = httpmsg.FormatResponse(400, nil, nil)
	} else {
		resp := s.handler(req)
		out = httpmsg.FormatResponse(resp.Status, resp.Headers, resp.Body)
	}

	// Child writes the response back over the pipe, then exits; parent
	// reaps it (wait4 + VM teardown).
	var parentBuf []byte
	for off := 0; off < len(out); off += 4096 {
		end := off + 4096
		if end > len(out) {
			end = len(out)
		}
		spin(s.costs.Syscall + s.costs.CtxSwitch)
		parentBuf = append(parentBuf, out[off:end]...)
	}
	spin(s.costs.Syscall) // wait4(2)
	child.space = nil
	return parentBuf
}

// Result mirrors workload.Result for the baseline path.
type Result struct {
	Connections int
	Elapsed     time.Duration
	Latency     *stats.Histogram
}

// ConnsPerSec is the Figure 7 metric.
func (r Result) ConnsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Connections) / r.Elapsed.Seconds()
}

// Run drives count copies of req through the server at the given client
// concurrency, measuring throughput and latency (Figures 7 and 8).
func Run(s *Server, req *httpmsg.Request, count, concurrency int) Result {
	raw := httpmsg.FormatRequest(req)
	res := Result{Connections: count, Latency: stats.NewHistogram()}
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= count {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				t0 := time.Now()
				s.Do(raw)
				res.Latency.Add(time.Since(t0)) // lock-free
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}
