package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"strconv"
	"testing"
	"time"
)

// benchmarkJSON is the contract file the driver reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// inProcess boots the server inside the test binary: one process under the
// race detector sees both halves.
func inProcess(w workload, trace bool) (target, error) { return boot(w, trace) }

// tiny shrinks a workload to smoke-test scale.
func tiny(w workload) workload {
	if w.users > 24 {
		w.users = 24
	}
	return w
}

func checkResult(t *testing.T, res result, want []struct{ Name string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v, %d of %d requests failed: %v", res.workload, res.Correct, res.Failed, res.Attempted, res.notes)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", res.workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", res.workload, m.Name)
		} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", res.workload, m.Name, v.Value)
		}
	}
}

// TestWorkloads runs every workload named in BENCHMARK.json end to end at
// tiny scale and checks the result carries every end-to-end metric, with no
// failed request and no leak at shutdown.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", bw.Name)
		}
		res, err := runEndToEnd(tiny(w), 1, 500*time.Millisecond, inProcess)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, b.EndToEnd)
		for _, m := range b.EndToEnd {
			// In-process the heap is shared with the generator and with the
			// garbage of earlier boots, so at 24 users session_bytes is
			// noise around its true value and can dip below 0.
			if m.Name != "session_bytes" && res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}

// TestTraced runs the per-layer run on the workload that exercises every
// span (store.mixed) and checks it carries every per-layer metric.
func TestTraced(t *testing.T) {
	b := readBenchmarkJSON(t)
	w, _ := findWorkload("store.mixed")
	res, err := runTraced(w, 1, 500*time.Millisecond, inProcess)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, b.PerLayer)
	if got := res.Metrics["dbproxy.rows_delivered_ratio"].Value; got != float64(rowsPerUser)/float64(rowsPerUser*w.users) {
		t.Errorf("rows_delivered_ratio = %v: a scan must see exactly the caller's %d of %d rows", got, rowsPerUser, rowsPerUser*w.users)
	}
}

// TestIsolationCheckTrips feeds the client a /store response holding
// another user's row and checks it is counted as an isolation violation,
// not as an ordinary wrong answer.
func TestIsolationCheckTrips(t *testing.T) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Read(make([]byte, 4096))
		body := rowKey(3, 0) + "\n" + rowKey(4, 0) + "\n" // user 3's scan leaks a row of user 4's
		c.Write([]byte("HTTP/1.0 200 OK\r\ncontent-length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body))
	}()
	var tl tally
	ok := tl.do(newWire(ln.Addr().String()), request{raw: rawRequest("/store?op=s", 3, false), user: 3, store: true, want: []byte(rowKey(3, 0) + "\n")}, false)
	if ok || tl.isolation != 1 || tl.failed != 1 {
		t.Fatalf("foreign row: ok=%v isolation=%d failed=%d, want false/1/1 (%s)", ok, tl.isolation, tl.failed, tl.firstErr)
	}
	if foreignRow([]byte(rowKey(3, 1)+"\n"+initialValue(3, 2)+"\nok"), 3) {
		t.Fatal("a user's own keys and values were flagged as foreign")
	}
}

// TestQuartiles pins the repeatability report to the gate's arithmetic:
// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two values = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
