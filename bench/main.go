// Command bench is the repository's gated benchmark: it boots the full OKWS
// stack in a child process, drives it over loopback TCP with a closed loop
// of two connections, checks every response, and prints every metric by
// name and unit. BENCHMARK.json at the repository root names the workloads,
// the metrics and their regression bounds; README.md explains them.
//
//	go run ./bench --workload echo.keepalive --seed 1 --seconds 20 --trace 0
//	go run ./bench --workload store.mixed --trace 1   # per-layer traced run
//	go run ./bench                                    # every workload
//	go run ./bench -repeat 5                          # repeatability report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

var (
	workloadFlag = flag.String("workload", "", "workload to run (default: all of them in turn)")
	seedFlag     = flag.Int64("seed", 1, "seed for every random choice the generator makes")
	secondsFlag  = flag.Float64("seconds", 20, "measured window per workload, split over 4 boots of the server")
	traceFlag    = flag.Int("trace", 0, "1 = per-layer traced run (shorter windows) instead of the end-to-end run")
	repeatFlag   = flag.Int("repeat", 0, "run N full sets and report each metric's spread against its BENCHMARK.json bound")
	serveFlag    = flag.Bool("serve", false, "server half only (what the parent re-executes)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	selected := workloads
	if *workloadFlag != "" {
		w, ok := findWorkload(*workloadFlag)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadFlag)
		}
		selected = []workload{w}
	}
	if *serveFlag {
		if *workloadFlag == "" {
			return fmt.Errorf("-serve needs -workload")
		}
		return serveChild(selected[0], *traceFlag == 1)
	}
	if *secondsFlag <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	seconds := time.Duration(*secondsFlag * float64(time.Second))
	start := func(w workload, trace bool) (target, error) { return spawn(w, trace) }
	if *repeatFlag > 0 {
		return repeat(selected, *repeatFlag, *seedFlag, seconds, start)
	}
	for _, w := range selected {
		var (
			res result
			err error
		)
		if *traceFlag == 1 {
			res, err = runTraced(w, *seedFlag, seconds, start)
		} else {
			res, err = runEndToEnd(w, *seedFlag, seconds, start)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(os.Stdout)
	}
	return nil
}

// metric is one reported number. Gated metrics are the end-to-end ones
// BENCHMARK.json bounds; the rest are informational.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's last-line JSON object
// plus the human-readable lines printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload  string
	notes     []string // informational lines: spreads, percentiles, drift, drops
	leakErrs  []string // shutdown verdicts of servers that leaked
	shutdowns []leaks  // every server's shutdown check
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r result) print(out *os.File) {
	fmt.Fprintf(out, "== %s: closed loop, %d connections / %d goroutines, loopback TCP, server in a child process\n",
		r.workload, conns, conns)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintf(out, "  error_rate %d/%d\n", r.Failed, r.Attempted)
	line, _ := json.Marshal(r) // a struct of numbers, strings and bools cannot fail to marshal
	fmt.Fprintf(out, "%s\n", line)
}

// startFunc boots a server for a workload.
type startFunc func(w workload, trace bool) (target, error)

// An end-to-end run measures the workload in `phases` separate boots of the
// server, a quarter of the window each, and takes every metric over all of
// them together. The sandbox's CPU speed wanders by ±10% over tens of seconds;
// one long phase sits wholly inside or outside a slow spell, several short
// ones straddle it. It also folds boot-to-boot variation (heap layout, handle
// and fingerprint order) into each run instead of leaving it between runs,
// and keeps echo.sessions2k's heap, which grows with every connection, small.
// setup_s and session_bytes are the median over the same boots, plus — where
// a set-up takes milliseconds and process start-up jitter is a large share of
// it — as many set-up-only boots as fit in a tenth of the window, up to
// maxSetups in all.
const (
	phases    = 4
	maxSetups = 24
)

// subWindows is how many equal slices each phase is cut into; rate, latency
// and CPU metrics are a quartile of the slices of all phases (fastQuartile),
// which a single GC cycle or scheduler hiccup cannot move.
const subWindows = 5

// prepared is a booted, warmed server.
type prepared struct {
	t            target
	setupSeconds float64
	sessionBytes float64
	after        report // gc report after set-up
}

// prepare boots a server and performs the workload's set-up against it:
// every provisioned user logs in once (and, for store.mixed, inserts its
// rows), which is what caches the sessions the measured phase runs over.
func prepare(w workload, trace bool, start startFunc, tl *tally) (prepared, error) {
	t0 := time.Now()
	t, err := start(w, trace)
	if err != nil {
		return prepared{}, err
	}
	p := prepared{t: t}
	if err := warmSessions(w, t.Addr(), tl); err != nil {
		t.Shutdown()
		return p, err
	}
	p.setupSeconds = time.Since(t0).Seconds()
	if p.after, err = t.Report(true); err != nil {
		t.Shutdown()
		return p, err
	}
	p.sessionBytes = (float64(p.after.HeapInuse) - float64(p.after.BootHeap)) / float64(w.users)
	return p, nil
}

// warmSessions logs every user in once over conns connections at a time,
// one new connection per request.
func warmSessions(w workload, addr string, tl *tally) error {
	tallies := make([]tally, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := newWire(addr)
			for u := g; u < w.users; u += conns {
				if !w.store {
					tallies[g].do(wr, request{raw: rawRequest("/echo?n=11", u, false), user: u, want: echoBody}, false)
					continue
				}
				for j := 0; j < rowsPerUser; j++ {
					path := "/store?op=i&k=" + rowKey(u, j) + "&d=" + initialValue(u, j)
					tallies[g].do(wr, request{raw: rawRequest(path, u, false), user: u, store: true, want: []byte("ok")}, false)
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		tl.add(t)
	}
	if tl.failed > 0 {
		return fmt.Errorf("set-up: %d of %d requests failed: %s", tl.failed, tl.attempted, tl.firstErr)
	}
	return nil
}

// measured is a load phase with the server reports taken at its edges.
type measured struct {
	load
	edges []report // subWindows+1 snapshots: start of window 0, end of each window
}

// measure runs the workload's closed loop against t for a warm-up of a tenth
// of d and then d, cut into subWindows slices.
func measure(w workload, t target, seed int64, d time.Duration) (measured, error) {
	gens := make([]*generator, conns)
	for i := range gens {
		gens[i] = newGenerator(w, i, seed)
	}
	var m measured
	var err error
	m.load, err = runLoad(t.Addr(), gens, d/10, d/subWindows, subWindows, func(int) error {
		r, err := t.Report(false)
		m.edges = append(m.edges, r)
		return err
	})
	return m, err
}

// perWindow evaluates f on each sub-window, in time order.
func (m measured) perWindow(f func(i int, lat []time.Duration) float64) []float64 {
	vs := make([]float64, len(m.windows))
	for i, lat := range m.windows {
		vs[i] = f(i, lat)
	}
	return vs
}

func (m measured) throughputs() []float64 {
	return m.perWindow(func(_ int, lat []time.Duration) float64 { return float64(len(lat)) / m.sub.Seconds() })
}

func (m measured) latencies(p float64) []float64 {
	return m.perWindow(func(_ int, lat []time.Duration) float64 { return float64(percentile(lat, p)) / 1e3 })
}

// cpuPerRequest is the server's CPU time over each sub-window per correct
// response completed in it.
func (m measured) cpuPerRequest() []float64 {
	return m.perWindow(func(i int, lat []time.Duration) float64 {
		return float64(m.edges[i+1].CPUMicros-m.edges[i].CPUMicros) / float64(max(len(lat), 1))
	})
}

func (m measured) requests() int {
	n := 0
	for _, lat := range m.windows {
		n += len(lat)
	}
	return n
}

func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// fastQuartile is the quartile of the sub-window values on the fast side:
// the third for a rate, the first for a time. The sandbox's other tenants
// only ever slow a sub-window down, so the values have a hard edge on the
// fast side and a long tail on the slow one, and a quartile near the edge
// repeats better than the median: over ten runs per workload the spread of
// throughput_rps fell from 8.3/4.3/4.1/2.8% to 5.4/2.9/3.2/2.2% (README).
// A change that slows every request moves the quartile as far as the median.
func fastQuartile(vs []float64, higherIsBetter bool) float64 {
	q1, _, q3 := quartiles(vs)
	if higherIsBetter {
		return q3
	}
	return q1
}

// retire shuts a server down and keeps its leak verdict for finish.
func (r *result) retire(t target) {
	l, err := t.Shutdown()
	if err != nil {
		r.leakErrs = append(r.leakErrs, err.Error())
	}
	r.shutdowns = append(r.shutdowns, l)
}

// finish folds the client's tally and the servers' leak verdicts into the
// result. An isolation violation is fatal: the run has no result.
func (r *result) finish(tl tally) error {
	if tl.isolation > 0 {
		return fmt.Errorf("%d isolation violations: %s", tl.isolation, tl.firstErr)
	}
	r.Attempted, r.Failed = tl.attempted, tl.failed
	r.Correct = tl.failed == 0 && len(r.leakErrs) == 0
	if tl.failed > 0 {
		r.notef("first failure: %s", tl.firstErr)
	}
	for _, l := range r.leakErrs {
		r.notef("%s", l)
	}
	r.notef("shutdown checks, one per boot {payload pool growth, demux connections}: %v", r.shutdowns)
	return nil
}

// runEndToEnd is the untraced run the gate compares.
func runEndToEnd(w workload, seed int64, total time.Duration, start startFunc) (result, error) {
	res := result{workload: w.name, Metrics: map[string]metric{}}
	var (
		tl                    tally
		setups, sessions      []float64
		tput, p95, cpu, drift []float64
		pooled                []time.Duration
		drops                 uint64
		dropsBy               map[string]uint64
		sessionsCached        int
	)
	for i := 0; i < phases; i++ {
		p, err := prepare(w, false, start, &tl)
		if err != nil {
			return res, err
		}
		setups, sessions = append(setups, p.setupSeconds), append(sessions, p.sessionBytes)
		m, err := measure(w, p.t, seed*phases+int64(i), total/phases)
		tl.add(m.tally)
		res.retire(p.t)
		if err != nil {
			return res, err
		}
		final := m.edges[subWindows]
		t := m.throughputs()
		tput, p95, cpu = append(tput, t...), append(p95, m.latencies(95)...), append(cpu, m.cpuPerRequest()...)
		drift = append(drift, t[subWindows-1]/max(t[0], 1))
		for _, lat := range m.windows {
			pooled = append(pooled, lat...)
		}
		drops, dropsBy, sessionsCached = drops+final.Drops, final.DropsByClass, p.after.Sessions
	}
	for t0 := time.Now(); len(setups) < maxSetups && time.Since(t0)+time.Duration(median(setups)*float64(time.Second)) < total/10; {
		p, err := prepare(w, false, start, &tl)
		if err != nil {
			return res, err
		}
		setups, sessions = append(setups, p.setupSeconds), append(sessions, p.sessionBytes)
		res.retire(p.t)
	}

	res.set("throughput_rps", fastQuartile(tput, true), "1/s")
	res.set("latency_p95_us", fastQuartile(p95, false), "us")
	res.set("cpu_us_per_req", fastQuartile(cpu, false), "us")
	res.set("session_bytes", median(sessions), "B")
	res.set("setup_s", median(setups), "s")
	sort.Slice(pooled, func(a, b int) bool { return pooled[a] < pooled[b] })
	us := func(p float64) float64 { return float64(percentile(pooled, p)) / 1e3 }
	res.notef("medians: throughput %.0f rps, p95 %.0f us, cpu %.1f us/req; the metrics are the fast-side quartiles", median(tput), median(p95), median(cpu))
	res.notef("%d phases × %d sub-windows of %v, in time order: throughput %.0f rps", phases, subWindows, total/phases/subWindows, tput)
	res.notef("  p95 %.0f us", p95)
	res.notef("  cpu %.1f us/req", cpu)
	res.notef("latency over all %d samples: p50 %.1f us, p99 %.1f us, p999 %.1f us (informational: see README)", len(pooled), us(50), us(99), us(99.9))
	res.notef("%d set-ups: %.3f s, %.0f B/session; %d sessions cached", len(setups), setups, sessions, sessionsCached)
	if !w.keepAlive {
		res.notef("drift_ratio %.3f per phase (last ÷ first sub-window throughput)", drift)
	}
	res.notef("kernel drops %d, last phase by class %v", drops, dropsBy)
	return res, res.finish(tl)
}
