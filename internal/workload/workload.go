// Package workload is the HTTP load generator for the evaluation: the
// stand-in for the paper's "Linux HTTP client generating requests" on the
// gigabit LAN. It issues requests over the simulated network with bounded
// concurrency and collects throughput and latency statistics (Figures 7–8).
package workload

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/netd"
	"asbestos/internal/stats"
)

// ErrTruncated is returned when the server closes mid-response.
var ErrTruncated = errors.New("workload: truncated response")

// Do performs one HTTP request/response over a fresh connection.
func Do(nw *netd.Network, lport uint16, req *httpmsg.Request) (*httpmsg.Response, error) {
	c, err := nw.Dial(lport)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Write(httpmsg.FormatRequest(req)); err != nil {
		return nil, err
	}
	var buf []byte
	chunk := make([]byte, 4096)
	for {
		resp, _, complete, err := httpmsg.ParseResponse(buf)
		if err != nil {
			return nil, err
		}
		if complete {
			return resp, nil
		}
		n, err := c.Read(chunk)
		if err == io.EOF {
			return nil, ErrTruncated
		}
		if err != nil {
			return nil, err
		}
		buf = append(buf, chunk[:n]...)
	}
}

// Get issues an authenticated GET.
func Get(nw *netd.Network, lport uint16, user, pass, path string) (*httpmsg.Response, error) {
	return Do(nw, lport, &httpmsg.Request{
		Method:  "GET",
		Path:    path,
		Headers: map[string]string{"authorization": user + " " + pass},
	})
}

// Credentials identifies one workload user.
type Credentials struct {
	User string
	Pass string
}

// SessionWorkload builds the paper's §9.2.1 request mix: each user connects
// exactly perUser times to the given path. Connections for a user are
// interleaved round-robin so sessions stay concurrently live.
func SessionWorkload(users []Credentials, path string, perUser int) []*httpmsg.Request {
	var reqs []*httpmsg.Request
	for round := 0; round < perUser; round++ {
		for _, u := range users {
			reqs = append(reqs, &httpmsg.Request{
				Method:  "GET",
				Path:    path,
				Headers: map[string]string{"authorization": u.User + " " + u.Pass},
			})
		}
	}
	return reqs
}

// Result aggregates one run.
type Result struct {
	Connections int
	Errors      int
	BadStatus   int
	Elapsed     time.Duration
	Latency     *stats.Histogram
}

// ConnsPerSec is the Figure 7 metric.
func (r Result) ConnsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Connections-r.Errors) / r.Elapsed.Seconds()
}

func (r Result) String() string {
	return fmt.Sprintf("%d conns in %v (%.0f conn/s, %d errors), median %v, p90 %v",
		r.Connections, r.Elapsed.Round(time.Millisecond), r.ConnsPerSec(), r.Errors,
		r.Latency.Median().Round(time.Microsecond), r.Latency.P90().Round(time.Microsecond))
}

// Run drives the request list with the given concurrency, measuring
// wall-clock throughput and per-request latency.
func Run(nw *netd.Network, lport uint16, reqs []*httpmsg.Request, concurrency int) Result {
	if concurrency < 1 {
		concurrency = 1
	}
	res := Result{Connections: len(reqs), Latency: stats.NewHistogram()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(reqs) {
					mu.Unlock()
					return
				}
				req := reqs[next]
				next++
				mu.Unlock()
				t0 := time.Now()
				resp, err := Do(nw, lport, req)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					res.Errors++
				} else {
					res.Latency.Add(lat)
					if resp.Status != 200 {
						res.BadStatus++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}
