// Command loadgen is the real-socket load generator for the TCP front end:
// the paper's "Linux HTTP client" pointed at a live OKWS stack over actual
// TCP instead of the simulated wire. It holds -conns concurrent keep-alive
// connections — ten thousand by default — and drives each through a
// login→session→query conversation, reporting connections/sec, requests/sec
// and latency percentiles.
//
// With no -addr it is self-contained: it re-executes itself with -serve as
// a child process that boots the full stack (okws.Launch + ListenTCP on a
// loopback ephemeral port) and drives that. Server and client are separate
// processes on purpose — each side of a 10k-connection run needs 10k file
// descriptors, and one process holding both ends walks into the fd limit
// at exactly peak load, where the kernel's response (accepts failing while
// established connections rot in the listen queue) is maximally confusing.
// With -addr it drives an externally running server (e.g.
// examples/webserver -listen) that serves a /store worker and knows users
// user0..userN-1 with passwords pw0.. .
//
// Usage:
//
//	loadgen                                # self-contained: 10000 conns, 3 reqs each
//	loadgen -conns 1000 -reqs 2 -users 20  # CI smoke scale
//	loadgen -addr host:port                # external target
//	loadgen -serve                         # server half only; prints LISTENING <addr>
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on -pprof only; DefaultServeMux is otherwise unused
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/netd"
	"asbestos/internal/okws"
	"asbestos/internal/passhash"
	"asbestos/internal/workload"
)

var (
	conns    = flag.Int("conns", 10000, "concurrent keep-alive TCP connections")
	reqs     = flag.Int("reqs", 3, "requests per connection (login + session queries)")
	users    = flag.Int("users", 100, "distinct user accounts to spread connections over")
	shards   = flag.Int("shards", 0, "event-loop shards per trusted service (0 = GOMAXPROCS)")
	addr     = flag.String("addr", "", "drive an external server instead of booting one")
	barrier  = flag.Bool("barrier", true, "hold requests until every connection is established")
	dialrate = flag.Int("dialrate", 2500, "connection ramp: dial starts per second (0 = unpaced burst)")
	inflight = flag.Int("inflight", 512, "cap on requests in flight across all connections (0 = none)")
	timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
	serveFlg = flag.Bool("serve", false, "server half only: boot the stack, print LISTENING <addr>, run until stdin closes")
	pprofFlg = flag.String("pprof", "", "serve net/http/pprof on this addr (server half), e.g. localhost:6060")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := raiseNoFile(uint64(*conns)*2 + 4096); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: rlimit:", err)
	}
	if *serveFlg {
		return serve()
	}

	target := *addr
	var stopChild func() error
	if target == "" {
		var err error
		target, stopChild, err = spawnServer()
		if err != nil {
			return err
		}
		fmt.Printf("booted server child on %s\n", target)
	}

	fmt.Printf("driving %d connections × %d requests at %s\n", *conns, *reqs, target)
	res := workload.RunTCP(target, workload.TCPOptions{
		Conns:       *conns,
		ReqsPerConn: *reqs,
		MaxInflight: *inflight,
		DialRate:    *dialrate,
		ReqTimeout:  *timeout,
		Barrier:     *barrier,
		HoldOpen:    true,
	}, request)
	fmt.Println(res)
	for _, e := range res.ErrSample {
		fmt.Println("  error:", e)
	}
	if stopChild != nil {
		if err := stopChild(); err != nil { // relays the server's shutdown diagnostics
			return fmt.Errorf("server child: %w", err)
		}
	}
	if res.Errors > 0 || res.BadStatus > 0 {
		return fmt.Errorf("%d errors, %d bad status", res.Errors, res.BadStatus)
	}
	return nil
}

// serve is the server half: boot the stack, announce the address on
// stdout, then hold until the parent (or operator) closes stdin; shutdown
// prints the stack's loss diagnostics so a failed run is attributable.
// While running it samples the process goroutine count and the server-held
// connection count, and at shutdown it enforces the poller transport's
// whole point: goroutines must NOT scale with connections.
func serve() error {
	if *pprofFlg != "" {
		go func() {
			if err := http.ListenAndServe(*pprofFlg, nil); err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", *pprofFlg)
	}
	srv, ln, err := boot()
	if err != nil {
		return err
	}
	var peakG, peakConns atomic.Int64
	sampleDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-tick.C:
				if g := int64(runtime.NumGoroutine()); g > peakG.Load() {
					peakG.Store(g)
				}
				if c := int64(srv.Netd.Injector().ConnCount()); c > peakConns.Load() {
					peakConns.Store(c)
				}
			}
		}
	}()
	baseGoroutines := runtime.NumGoroutine() // the idle stack plus the sampler
	fmt.Printf("LISTENING %s\n", ln.Addr())
	io.Copy(io.Discard, os.Stdin)
	close(sampleDone)
	if drops := srv.Sys.Drops(); drops > 0 {
		fmt.Printf("kernel drops: %d %v\n", drops, srv.Sys.DropStats())
	}
	if n := srv.Demux.ConnCount(); n > 0 {
		fmt.Printf("demux still tracks %d connections\n", n)
	}
	stranded := 0
	srv.Netd.Injector().Conns(func(c netd.WireConn) {
		if in, _ := c.BufferState(); in > 0 && stranded < 8 {
			stranded++
			fmt.Printf("  stranded: conn id %d has %d inbound bytes unread\n", c.ID(), in)
		}
	})
	srv.Stop()
	fmt.Printf("goroutines: base %d, peak %d at peak %d conns\n",
		baseGoroutines, peakG.Load(), peakConns.Load())
	// The epoll transport exists so connections cost no goroutines: what the
	// stack grew beyond its idle base must stay below the connections it
	// held, at any scale. Fail loudly if a per-connection goroutine returns.
	if grown := peakG.Load() - int64(baseGoroutines); grown > 0 && grown >= peakConns.Load() {
		return fmt.Errorf("goroutine budget exceeded: %d goroutines beyond the idle stack for %d conns",
			grown, peakConns.Load())
	}
	return nil
}

// spawnServer re-executes this binary with -serve and waits for its
// LISTENING line. The returned stop closes the child's stdin (its shutdown
// signal) and waits for it to exit, relaying its diagnostics.
func spawnServer() (addr string, stop func() error, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	args := []string{"-serve",
		"-users", fmt.Sprint(*users),
		"-shards", fmt.Sprint(*shards)}
	if *pprofFlg != "" {
		args = append(args, "-pprof", *pprofFlg)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return "", nil, fmt.Errorf("server child died before announcing: %v", err)
	}
	addr = strings.TrimSpace(strings.TrimPrefix(line, "LISTENING"))
	if addr == strings.TrimSpace(line) {
		cmd.Process.Kill()
		cmd.Wait()
		return "", nil, fmt.Errorf("unexpected server announcement %q", line)
	}
	go io.Copy(os.Stdout, br) // relay diagnostics printed at shutdown
	stop = func() error {
		stdin.Close()
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err // non-zero exit = server-side invariant failed (e.g. goroutine budget)
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
			return fmt.Errorf("server child hung at shutdown")
		}
	}
	return addr, stop, nil
}

// request builds connection c's seq'th request: every connection belongs to
// one user for its whole life (login creates the session, later requests
// ride it). The first request stores a connection-unique row; later ones
// query it back by value, so every request costs one database round trip
// and one labeled result row — per-request work stays constant as the
// table grows with the connection count.
func request(c, seq int) *httpmsg.Request {
	u := c % *users
	path := fmt.Sprintf("/store?q=conn%d", c)
	if seq == 0 {
		path = fmt.Sprintf("/store?d=conn%d", c)
	}
	return &httpmsg.Request{
		Method: "GET",
		Path:   path,
		Headers: map[string]string{
			"authorization": fmt.Sprintf("user%d pw%d", u, u),
		},
	}
}

// boot launches a full OKWS stack with a /store worker and a TCP listener
// on an ephemeral loopback port. Login hashing uses the light test cost:
// the generator measures the serving path, not Argon2id throughput.
func boot() (*okws.Server, netd.TCPFrontend, error) {
	store := func(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
		if d, ok := req.Query["d"]; ok {
			if _, err := c.Query("INSERT INTO notes (d) VALUES (?)", d); err != nil {
				return &httpmsg.Response{Status: 500, Body: []byte(err.Error())}
			}
			return &httpmsg.Response{Status: 200, Body: []byte("stored")}
		}
		var (
			rows [][]string
			err  error
		)
		if q, ok := req.Query["q"]; ok {
			rows, err = c.Query("SELECT d FROM notes WHERE d = ?", q)
		} else {
			rows, err = c.Query("SELECT d FROM notes")
		}
		if err != nil {
			return &httpmsg.Response{Status: 500, Body: []byte(err.Error())}
		}
		var out []byte
		for _, r := range rows {
			out = append(out, r[0]...)
			out = append(out, '\n')
		}
		return &httpmsg.Response{Status: 200, Body: out}
	}

	srv, err := okws.Launch(okws.Config{
		Seed:       1,
		Shards:     *shards,
		Services:   []okws.Service{{Name: "store", Handler: store}},
		IddOptions: idd.Options{Hash: passhash.TestParams},
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := srv.Database.Exec("CREATE TABLE notes (d, _uid)"); err != nil {
		srv.Stop()
		return nil, nil, err
	}
	for i := 0; i < *users; i++ {
		if err := srv.AddUser(fmt.Sprintf("user%d", i), fmt.Sprintf("pw%d", i), fmt.Sprintf("%d", 1000+i)); err != nil {
			srv.Stop()
			return nil, nil, err
		}
	}
	ln, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, nil, err
	}
	return srv, ln, nil
}
