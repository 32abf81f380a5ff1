package workload

import (
	"strings"
	"testing"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/stats"
)

func TestSessionWorkloadShape(t *testing.T) {
	users := []Credentials{{"a", "pa"}, {"b", "pb"}, {"c", "pc"}}
	reqs := SessionWorkload(users, "/svc", 4)
	if len(reqs) != 12 {
		t.Fatalf("len = %d, want 12", len(reqs))
	}
	// Round-robin: consecutive requests rotate users so sessions overlap.
	if reqs[0].Headers["authorization"] != "a pa" ||
		reqs[1].Headers["authorization"] != "b pb" ||
		reqs[3].Headers["authorization"] != "a pa" {
		t.Fatalf("interleaving wrong: %v %v %v",
			reqs[0].Headers, reqs[1].Headers, reqs[3].Headers)
	}
	count := map[string]int{}
	for _, r := range reqs {
		count[r.Headers["authorization"]]++
		if r.Path != "/svc" || r.Method != "GET" {
			t.Fatalf("bad request %+v", r)
		}
	}
	for u, c := range count {
		if c != 4 {
			t.Fatalf("user %q got %d connections, want 4", u, c)
		}
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{Connections: 100, Errors: 10, Elapsed: time.Second, Latency: stats.NewHistogram()}
	if got := r.ConnsPerSec(); got != 90 {
		t.Fatalf("ConnsPerSec = %v", got)
	}
	if (Result{Latency: stats.NewHistogram()}).ConnsPerSec() != 0 {
		t.Fatal("zero elapsed must not divide by zero")
	}
	if !strings.Contains(r.String(), "conn/s") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestGetBuildsAuthorizedRequest(t *testing.T) {
	// Get goes through Do which needs a live network; here we validate the
	// request construction path via SessionWorkload equivalence.
	reqs := SessionWorkload([]Credentials{{"u", "p"}}, "/x", 1)
	raw := httpmsg.FormatRequest(reqs[0])
	back, _, complete, err := httpmsg.ParseRequest(raw)
	if err != nil || !complete {
		t.Fatal(err)
	}
	u, p, ok := back.User()
	if !ok || u != "u" || p != "p" {
		t.Fatalf("auth = %q %q", u, p)
	}
}
