package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"asbestos/internal/stats"
)

// runTraced is the per-layer run: the same workload against a server booted
// with the Figure 9 profiler, handler spans and the netd echo process, for
// one phase's length; an untraced server measured the same way first, so
// the difference between the two is the tracing overhead; then the layer
// probes. End-to-end metrics never come from here.
func runTraced(w workload, seed int64, total time.Duration, start startFunc) (result, error) {
	res := result{workload: w.name + " (traced)", Metrics: map[string]metric{}}
	var tl tally
	window := total / phases

	plain, err := prepare(w, false, start, &tl)
	if err != nil {
		return res, err
	}
	pm, err := measure(w, plain.t, seed, window)
	tl.add(pm.tally)
	res.retire(plain.t)
	if err != nil {
		return res, err
	}

	p, err := prepare(w, true, start, &tl)
	if err != nil {
		return res, err
	}
	m, err := measure(w, p.t, seed, window)
	tl.add(m.tally)
	if err != nil {
		res.retire(p.t)
		return res, err
	}
	first, last := m.edges[0], m.edges[len(m.edges)-1]
	reqs := float64(max(m.requests(), 1))
	per := func(a, b uint64) float64 { return float64(b-a) / reqs }

	for _, c := range []struct {
		cat  stats.Category
		name string
	}{
		{stats.CatKernelIPC, "prof.kernel_ipc_ns_per_req"},
		{stats.CatNetwork, "prof.network_ns_per_req"},
		{stats.CatOKWS, "prof.okws_ns_per_req"},
		{stats.CatOKDB, "prof.okdb_ns_per_req"},
	} {
		a, b := first.Prof[c.cat.String()], last.Prof[c.cat.String()]
		res.set(c.name, float64(b.NS-a.NS)/reqs, "ns")
		if c.cat == stats.CatKernelIPC {
			res.set("kernel.ops_per_req", float64(b.N-a.N)/reqs, "count")
		}
	}
	spanUS := func(a, b spanReport) float64 {
		if b.N == a.N {
			return 0
		}
		return float64(b.NS-a.NS) / float64(b.N-a.N) / 1e3
	}
	res.set("okws.handler_us", spanUS(first.Handler, last.Handler), "us")
	res.set("dbproxy.query_us.read", spanUS(first.QRead, last.QRead), "us")
	res.set("dbproxy.query_us.scan", spanUS(first.QScan, last.QScan), "us")
	res.set("dbproxy.query_us.write", spanUS(first.QWrite, last.QWrite), "us")
	delivered := 0.0
	if scans := last.QScan.N - first.QScan.N; scans > 0 {
		// dbproxy sends every row of the table to a scan (every owner has
		// logged in); the kernel drops the ones the caller may not receive.
		delivered = float64(last.ScanRows-first.ScanRows) / float64(scans*int64(p.after.NotesRows))
	}
	res.set("dbproxy.rows_delivered_ratio", delivered, "ratio")
	res.set("kernel.drops_per_req", per(first.Drops, last.Drops), "count")
	hits, misses := last.CacheHits-first.CacheHits, last.CacheMisses-first.CacheMisses
	res.set("label.opcache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	res.set("allocs_per_req", per(first.Mallocs, last.Mallocs), "count")
	res.set("alloc_bytes_per_req", per(first.AllocBytes, last.AllocBytes), "B")
	res.set("gc_pause_ms", float64(last.GCPauseNS-first.GCPauseNS)/1e6, "ms")
	res.set("goroutines_peak", float64(last.Goroutines), "count")
	res.set("mem.pages_per_session", (p.after.MemPages-p.after.BootPages)/float64(w.users), "pages")

	untraced, traced := median(pm.throughputs()), median(m.throughputs())
	res.set("trace_overhead_pct", (untraced-traced)/untraced*100, "%")

	rtt := probeRTT(p.t.ProbeAddr(), true, window/10, &tl)
	acceptRTT := probeRTT(p.t.ProbeAddr(), false, window/10, &tl)
	res.set("netd.rtt_us", rtt, "us")
	res.set("netd.accept_rtt_us", acceptRTT, "us")
	// Derived, not measured: what the request path adds on top of the
	// socket engine and netd — demux, idd, worker, dbproxy.
	below, belowName := acceptRTT, "accept rtt"
	if w.keepAlive {
		below, belowName = rtt, "rtt"
	}
	p50 := median(m.latencies(50))
	res.set("okws.demux_worker_us", p50-below, "us")

	res.retire(p.t)
	if err := probeLayers(&res); err != nil {
		return res, err
	}
	res.notef("throughput untraced %.0f rps, traced %.0f rps; traced p50 %.1f us; %d requests in the traced window",
		untraced, traced, p50, m.requests())
	res.notef("prof.* are inclusive: spans nest (an event-loop dispatch contains the kernel sends it makes)")
	res.notef("okws.demux_worker_us is derived: traced p50 − netd %s", belowName)
	res.notef("kernel drops in the window by class: %s", dropDelta(first.DropsByClass, last.DropsByClass))
	return res, res.finish(tl)
}

func dropDelta(a, b map[string]uint64) string {
	var parts []string
	for class, n := range b {
		if d := n - a[class]; d > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", class, d))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
