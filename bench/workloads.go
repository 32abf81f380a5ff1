package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// conns is the closed loop's width: connections and client goroutines. The
// bench box has two cores and the server child needs its share of them, so
// the generator never runs more than two requests at once; with so few in
// flight no server-side queue can build, and the numbers measure path
// length per request rather than queueing.
const conns = 2

// rowsPerUser is the fixed number of rows each store.mixed user owns.
const rowsPerUser = 4

// workload is one traffic mix. The names are fixed: later issues cite them.
type workload struct {
	name string
	// users is the number of accounts provisioned, each logged in once
	// during set-up (so that many sessions — or, on login.cold, identities —
	// are known to netd, idd, dbproxy and the demux when measurement starts).
	users int
	// keepAlive holds one connection per client goroutine for the whole
	// run; otherwise every request dials a new connection.
	keepAlive bool
	// store drives the /store read/scan/update mix instead of /echo.
	store bool
	// cold caps the demux and idd identity caches at one entry and makes
	// /echo sessions ephemeral, so every request pays the full login path.
	cold bool
}

// BENCHMARK.json says why each exists; README.md says what each stresses.
var workloads = []workload{
	{name: "echo.keepalive", users: 16, keepAlive: true},
	{name: "echo.sessions2k", users: 2000},
	{name: "store.mixed", users: 16, keepAlive: true, store: true},
	{name: "login.cold", users: 256, cold: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func userName(u int) string { return fmt.Sprintf("u%04d", u) }
func userPass(u int) string { return fmt.Sprintf("p%04d", u) }
func rowKey(u, j int) string {
	return fmt.Sprintf("%sk%d", userName(u), j)
}

// request is one generated HTTP request and the check its response must pass.
type request struct {
	raw   []byte
	user  int
	store bool // a /store response: its lines are rows, checked for foreign owners
	// want is the exact expected body; a mismatch is a failed request.
	want []byte
}

// rawRequest formats a GET by hand: httpmsg.FormatRequest ranges over maps,
// so its byte order is not a function of the seed.
func rawRequest(path string, user int, keepAlive bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.0\r\nauthorization: %s %s\r\n", path, userName(user), userPass(user))
	if keepAlive {
		b.WriteString("connection: keep-alive\r\n")
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

var echoBody = bytes.Repeat([]byte("x"), 11)

// generator produces one client goroutine's request stream. Everything
// random in a run comes from rng, which is seeded from -seed and the
// goroutine's index; the server only ever sees the requests.
type generator struct {
	w   workload
	rng *rand.Rand

	zipf *rand.Zipf
	next int // login.cold round-robin cursor

	// store.mixed: this connection's user and the value it last wrote to
	// each of that user's keys. A keep-alive connection is bound to one
	// user's event process for life, so no other connection writes them.
	user  int
	vals  [rowsPerUser]string
	scan  []byte
	nextV int

	echo map[int][]byte // prebuilt /echo requests by user
}

// newGenerator makes the stream of client goroutine id (0..conns-1).
func newGenerator(w workload, id int, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed*7919 + int64(id))), echo: map[int][]byte{}}
	switch {
	case w.keepAlive:
		// Two distinct users, one per connection, chosen by the seed.
		half := w.users / conns
		g.user = id*half + g.rng.Intn(half)
	case w.cold:
		g.next = id
	default:
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(w.users-1))
	}
	if w.store {
		var keys []string
		for j := range g.vals {
			g.vals[j] = initialValue(g.user, j)
			keys = append(keys, rowKey(g.user, j))
		}
		g.scan = joinLines(keys)
	}
	return g
}

func initialValue(u, j int) string { return rowKey(u, j) + "v0" }

func joinLines(lines []string) []byte {
	var b []byte
	for _, l := range lines {
		b = append(b, l...)
		b = append(b, '\n')
	}
	return b
}

func (g *generator) echoRequest(u int) request {
	raw, ok := g.echo[u]
	if !ok {
		raw = rawRequest("/echo?n=11", u, g.w.keepAlive)
		g.echo[u] = raw
	}
	return request{raw: raw, user: u, want: echoBody}
}

// Next returns the goroutine's next request.
func (g *generator) Next() request {
	switch {
	case g.w.store:
		return g.storeRequest()
	case g.w.keepAlive:
		return g.echoRequest(g.user)
	case g.w.cold:
		u := g.next % g.w.users
		g.next += conns
		return g.echoRequest(u)
	default:
		return g.echoRequest(int(g.zipf.Uint64()))
	}
}

func (g *generator) storeRequest() request {
	j := g.rng.Intn(rowsPerUser)
	k := rowKey(g.user, j)
	switch p := g.rng.Intn(10); {
	case p < 7: // point read: the last value this connection wrote to the key
		return request{raw: rawRequest("/store?op=r&k="+k, g.user, true), user: g.user, store: true, want: []byte(g.vals[j] + "\n")}
	case p < 9: // scan: exactly the caller's keys, whatever the table holds
		return request{raw: rawRequest("/store?op=s", g.user, true), user: g.user, store: true, want: g.scan}
	default: // update in place, so the table never grows
		g.nextV++
		g.vals[j] = fmt.Sprintf("%sv%d", k, g.nextV)
		return request{raw: rawRequest("/store?op=w&k="+k+"&d="+g.vals[j], g.user, true), user: g.user, store: true, want: []byte("ok")}
	}
}

// foreignRow reports whether a /store response body holds a line that is
// not one of user's own keys or values. Every key and value starts with
// its owner's name, so a foreign line is another user's row: an isolation
// violation, not merely a wrong answer.
func foreignRow(body []byte, user int) bool {
	prefix := []byte(userName(user) + "k")
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) > 0 && !bytes.Equal(line, []byte("ok")) && !bytes.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
