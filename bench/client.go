package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// target is the server a run drives: a child process (real runs, so CPU
// and heap are the server's alone) or an in-process stack (the smoke test).
type target interface {
	Addr() string
	ProbeAddr() string
	Report(gc bool) (report, error)
	Shutdown() (leaks, error)
}

// child is the server re-executed as a separate process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *json.Decoder
	addr  string
	probe string
}

// spawn re-executes this binary with -serve and waits for its announcement.
func spawn(w workload, trace bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve", "-workload", w.name}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: json.NewDecoder(stdout)}
	var hello struct{ Addr, Probe string }
	if err := c.out.Decode(&hello); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("server child died before announcing: %w", err)
	}
	c.addr, c.probe = hello.Addr, hello.Probe
	return c, nil
}

func (c *child) Addr() string      { return c.addr }
func (c *child) ProbeAddr() string { return c.probe }

func (c *child) Report(gc bool) (report, error) {
	cmd := "report\n"
	if gc {
		cmd = "gcreport\n"
	}
	var r report
	if _, err := io.WriteString(c.stdin, cmd); err != nil {
		return r, err
	}
	err := c.out.Decode(&r)
	return r, err
}

// Shutdown closes the child's stdin — its signal to run the leak checks and
// exit — reads the verdict, and waits for the process to end.
func (c *child) Shutdown() (leaks, error) {
	var l leaks
	c.stdin.Close()
	decErr := c.out.Decode(&l)
	if err := c.wait(); err != nil {
		return l, fmt.Errorf("server child: %w (%+v)", err, l)
	}
	return l, decErr
}

func (c *child) wait() error {
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("hung at shutdown")
	}
}

const requestTimeout = 10 * time.Second

// wire is one client goroutine's socket state. Connect-per-request
// workloads rotate the source address over 127.0.0.2–127.0.0.9 so a run's
// tens of thousands of short connections spread their TIME_WAIT entries
// over eight 4-tuple spaces instead of exhausting one.
type wire struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
	dial int
}

func newWire(addr string) *wire {
	return &wire{addr: addr, br: bufio.NewReaderSize(nil, 4096)}
}

func (w *wire) connect() error {
	w.dial++
	d := net.Dialer{
		Timeout:   requestTimeout,
		LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, byte(2+w.dial%8))},
	}
	c, err := d.Dial("tcp4", w.addr)
	if err != nil {
		return err
	}
	w.conn = c
	w.br.Reset(c)
	return nil
}

func (w *wire) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// roundTrip sends one request on the open connection and reads one
// content-length-framed response; the body stays valid until the next call.
func (w *wire) roundTrip(raw []byte) (status int, body []byte, err error) {
	w.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := w.conn.Write(raw); err != nil {
		return 0, nil, err
	}
	clen := 0
	for first := true; ; first = false {
		line, err := w.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if first {
			// "HTTP/1.0 200 OK"
			f := bytes.Fields(line)
			if len(f) < 2 {
				return 0, nil, fmt.Errorf("malformed status line %q", line)
			}
			if status, err = strconv.Atoi(string(f[1])); err != nil {
				return 0, nil, fmt.Errorf("malformed status line %q", line)
			}
			continue
		}
		if v, ok := bytes.CutPrefix(line, []byte("content-length:")); ok {
			if clen, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil || clen < 0 {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		}
	}
	if cap(w.body) < clen {
		w.body = make([]byte, clen)
	}
	w.body = w.body[:clen]
	if _, err := io.ReadFull(w.br, w.body); err != nil {
		return 0, nil, err
	}
	return status, w.body, nil
}

// tally counts what the client saw. A failed request is anything but a 200
// with the exact expected body within the timeout; an isolation violation
// — a row of another user's — is counted apart and is fatal to the run.
type tally struct {
	attempted, failed, isolation int
	firstErr                     string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.isolation += o.isolation
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// do issues one request — dialing first unless keepAlive has a connection
// open — and checks the response.
func (t *tally) do(w *wire, rq request, keepAlive bool) bool {
	t.attempted++
	if w.conn == nil {
		if err := w.connect(); err != nil {
			t.fail("dial: %v", err)
			return false
		}
	}
	if !keepAlive {
		defer w.close()
	}
	status, body, err := w.roundTrip(rq.raw)
	switch {
	case err != nil:
		w.close()
		t.fail("request: %v", err)
	case status == 200 && rq.store && foreignRow(body, rq.user):
		t.isolation++
		t.fail("isolation violation: user %s received %q", userName(rq.user), body)
	case status != 200:
		t.fail("status %d: %q", status, body)
	case !bytes.Equal(body, rq.want):
		t.fail("wrong body: got %q, want %q", body, rq.want)
	default:
		return true
	}
	return false
}

// load is a finished closed-loop phase.
type load struct {
	tally
	sub     time.Duration
	windows [][]time.Duration // sorted latencies of correct responses, per sub-window
}

// runLoad drives the closed loop: conns goroutines, each with its own
// connection state and generator, from now until warm + n×sub has passed.
// Responses completing during warm are checked but not measured. atEdge is
// called on the caller's goroutine at the start of window 0 and at the end
// of every window, so the caller can snapshot the server on the same clock.
func runLoad(addr string, gens []*generator, warm, sub time.Duration, n int, atEdge func(edge int) error) (load, error) {
	t0 := time.Now().Add(warm)
	end := t0.Add(time.Duration(n) * sub)
	perG := make([][][]time.Duration, len(gens))
	tallies := make([]tally, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		perG[i] = make([][]time.Duration, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWire(addr)
			defer w.close()
			t := &tallies[i]
			for {
				start := time.Now()
				if !start.Before(end) || t.isolation > 0 {
					return
				}
				ok := t.do(w, g.Next(), g.w.keepAlive)
				done := time.Now()
				if idx := int(done.Sub(t0) / sub); ok && !done.Before(t0) && idx < n {
					perG[i][idx] = append(perG[i][idx], done.Sub(start))
				}
			}
		}()
	}
	var edgeErr error
	for e := 0; e <= n && edgeErr == nil; e++ {
		time.Sleep(time.Until(t0.Add(time.Duration(e) * sub)))
		edgeErr = atEdge(e)
	}
	wg.Wait()
	l := load{sub: sub, windows: make([][]time.Duration, n)}
	for i := range gens {
		l.tally.add(tallies[i])
		for j := range l.windows {
			l.windows[j] = append(l.windows[j], perG[i][j]...)
		}
	}
	for _, w := range l.windows {
		sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
	}
	return l, edgeErr
}

// percentile reads the p-th percentile (0–100) off sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
