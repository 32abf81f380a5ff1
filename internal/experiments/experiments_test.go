package experiments

import (
	"errors"
	"testing"

	"asbestos/internal/netd"
	"asbestos/internal/stats"
)

// The experiment tests run scaled-down versions of each figure and assert
// the qualitative claims (the "shape"); the full-scale sweeps live in the
// cmd/ binaries and repository benchmarks.

func TestFigure6CachedShape(t *testing.T) {
	rows, err := Figure6([]int{50, 200}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: ≈1.5 pages per cached session. Accept 1–3: the exact
		// kernel byte count differs, the order of magnitude must not.
		if r.PagesPerSession < 1.0 || r.PagesPerSession > 3.0 {
			t.Errorf("sessions=%d: %.2f pages/cached session, want ≈1.5",
				r.Sessions, r.PagesPerSession)
		}
	}
	// Linearity: per-session cost must not grow with session count.
	if rows[1].PagesPerSession > rows[0].PagesPerSession*1.5 {
		t.Errorf("memory per session grew superlinearly: %.2f → %.2f",
			rows[0].PagesPerSession, rows[1].PagesPerSession)
	}
}

func TestFigure6ActiveShape(t *testing.T) {
	cached, err := Figure6([]int{50}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	active, err := Figure6([]int{50}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: active sessions use ≈8 more pages than cached ones. Require a
	// clear multiple.
	if active[0].PagesPerSession < cached[0].PagesPerSession+2 {
		t.Errorf("active %.2f pages/session should clearly exceed cached %.2f",
			active[0].PagesPerSession, cached[0].PagesPerSession)
	}
}

func TestFigure7Shape(t *testing.T) {
	// Warm up first: the first stack boot in a fresh process pays one-time
	// costs (lazy runtime init, cold label/op caches) that would land on
	// the 1-session row and mask the session-scaling comparison below.
	if _, err := Figure7OKWS([]int{1}); err != nil {
		t.Fatal(err)
	}
	// Best-of-N per row, as TestFigure9Shape does with its costs: the
	// comparison below is between timed runs on a shared machine, where
	// interference only ever slows a run, so the fastest of several samples
	// is the cleaner estimate of each rate. Two samples to start with, up to
	// four more only if the comparison would fail.
	var okwsRows []Fig7Row
	sample := func() {
		rows, err := Figure7OKWS([]int{1, 1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Errors != 0 {
				t.Fatalf("%s: %d errors", r.Label, r.Errors)
			}
			if r.ConnsPerSec <= 0 {
				t.Fatalf("%s: no throughput", r.Label)
			}
		}
		if okwsRows == nil {
			okwsRows = rows
		}
		for i, r := range rows {
			if r.ConnsPerSec > okwsRows[i].ConnsPerSec {
				okwsRows[i].ConnsPerSec = r.ConnsPerSec
			}
		}
	}
	// The paper's throughput falls with cached sessions because every
	// connection's label operations walk one entry per session (§9.3); the
	// test used to assert just that, "falls". Here those operations cost the
	// chunks they change, and what a thousand cached sessions still take off
	// the one-session rate (a larger heap to collect among it; the login's
	// database lookup is a key-index hit, flat in users) is a fifth to a
	// third on this box, where walking every entry took two thirds and more
	// (best-of-six rates 5400 against 8000 connections a second; 1600
	// against 7000 at the parent commit). So the assertion is the bound
	// between the two: at least half the one-session rate survives a
	// thousand sessions. The magnitude is what BENCHMARK.json's
	// echo.sessions2k gates.
	const survives = 0.5
	holdsUp := func() bool { return okwsRows[1].ConnsPerSec >= survives*okwsRows[0].ConnsPerSec }
	sample()
	sample()
	for extra := 0; extra < 4 && !holdsUp(); extra++ {
		sample()
	}
	if !holdsUp() {
		t.Errorf("OKWS throughput at 1000 sessions should stay above %.1f× the one-session rate: %.0f → %.0f",
			survives, okwsRows[0].ConnsPerSec, okwsRows[1].ConnsPerSec)
	}
	base := Figure7Baselines(300)
	var apache, mod float64
	for _, r := range base {
		switch r.Label {
		case "Apache":
			apache = r.ConnsPerSec
		case "Mod-Apache":
			mod = r.ConnsPerSec
		}
	}
	// Architectural ordering: Mod-Apache > Apache (paper: ≈2.8×).
	if mod <= apache {
		t.Errorf("Mod-Apache (%.0f) must beat Apache (%.0f)", mod, apache)
	}
}

func TestFigure7TransportABShape(t *testing.T) {
	row, err := Figure7TransportAB(8)
	if errors.Is(err, netd.ErrTCPUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Fig7Row{row.Simulated, row.TCP} {
		if r.Errors != 0 {
			t.Fatalf("%s: %d errors", r.Label, r.Errors)
		}
		if r.ConnsPerSec <= 0 {
			t.Fatalf("%s: no throughput", r.Label)
		}
	}
	// No ORDER assertion between the transports: on a loaded test box the
	// loopback-socket and in-memory rates are both scheduler-bound at this
	// scale. The A/B magnitude is recorded in CHANGES.md, in the entry that
	// added the epoll poller transport.
}

func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Server] = r
		if r.Median <= 0 || r.P90 < r.Median {
			t.Errorf("%s: median %.0fµs p90 %.0fµs malformed", r.Server, r.Median, r.P90)
		}
	}
	// Paper's table ordering: Mod-Apache fastest; Apache ≈3-5× slower.
	if byName["Mod-Apache"].Median >= byName["Apache"].Median {
		t.Errorf("Mod-Apache median %.0f should beat Apache %.0f",
			byName["Mod-Apache"].Median, byName["Apache"].Median)
	}
	// OKWS latency grows with cached sessions.
	if byName["OKWS, 1 session(s)"].Median > byName["OKWS, 100 session(s)"].Median {
		t.Errorf("OKWS latency should grow with sessions")
	}
}

func TestFigure9Shape(t *testing.T) {
	// 20 sessions as the small point, not 1: the per-connection averages
	// divide by sessions×4 connections, and a 4-connection sample is so
	// small that a single GC pause swamps the component costs.
	rows, err := Figure9([]int{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	// Min-of-N per cost cell: the minimum of several samples is the cleaner
	// cost estimate for a shape comparison on a shared machine. Start with
	// two samples and take up to four more only if the shape comparisons
	// below would fail — scheduler preemption (e.g. GOMAXPROCS above the
	// physical core count) can inflate the small point of a single sample.
	sample := func() {
		again, err := Figure9([]int{20, 200})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			for c, v := range again[i].Kcycles {
				if v < rows[i].Kcycles[c] {
					rows[i].Kcycles[c] = v
				}
			}
		}
	}
	sample()
	// Kernel IPC (label) cost per connection is what the paper's §9.3 sees
	// growing linearly with sessions, because every label operation walks
	// netd's and ok-demux's per-user entries. Here an operation costs the
	// chunks it changes — a connection touches one handle, so one chunk of
	// each big label, and the rest are shared or skipped whole — so ten
	// times the sessions must not double it. (It measures 1.3× here, 2.1×
	// for fifty times the sessions; walking every entry measures 2.6× and
	// 8.9×.)
	const flat = 2
	ipcFlat := func() bool {
		return rows[1].Kcycles[stats.CatKernelIPC] <= flat*rows[0].Kcycles[stats.CatKernelIPC]
	}
	dbGrows := func() bool { return rows[1].Kcycles[stats.CatOKDB] > rows[0].Kcycles[stats.CatOKDB] }
	for extra := 0; extra < 4 && !(ipcFlat() && dbGrows()); extra++ {
		sample()
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Fatalf("sessions=%d: no cost recorded", r.Sessions)
		}
	}
	if !ipcFlat() {
		t.Errorf("Kernel IPC Kcycles/conn should stay within %d× from 20 to 200 sessions: %.0f → %.0f",
			flat, rows[0].Kcycles[stats.CatKernelIPC], rows[1].Kcycles[stats.CatKernelIPC])
	}
	// OKDB cost still grows, but not in the engine: each login's lookup and
	// first-login update are key-index hits. What grows is the proxy
	// loop's time outside the engine (its share of each login's messages
	// and their labels, and of a larger heap to collect), which this sweep
	// does not break down; it read 1.05–1.56× over eight samples.
	d1 := rows[0].Kcycles[stats.CatOKDB]
	d2 := rows[1].Kcycles[stats.CatOKDB]
	if d2 <= d1 {
		t.Errorf("OKDB Kcycles/conn should grow: %.0f → %.0f", d1, d2)
	}
}
