package httpmsg

import (
	"bytes"
	"testing"
)

func TestParseRequestBasic(t *testing.T) {
	raw := []byte("GET /store?d=hello&x=1 HTTP/1.0\r\nAuthorization: alice pw1\r\n\r\n")
	req, n, complete, err := ParseRequest(raw)
	if err != nil || !complete {
		t.Fatalf("parse: %v complete=%v", err, complete)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if req.Method != "GET" || req.Path != "/store" {
		t.Fatalf("req = %+v", req)
	}
	if req.Query["d"] != "hello" || req.Query["x"] != "1" {
		t.Fatalf("query = %v", req.Query)
	}
	if req.Service() != "store" {
		t.Fatalf("service = %q", req.Service())
	}
	u, p, ok := req.User()
	if !ok || u != "alice" || p != "pw1" {
		t.Fatalf("user = %q %q %v", u, p, ok)
	}
}

func TestParseRequestIncremental(t *testing.T) {
	raw := []byte("POST /w HTTP/1.0\r\ncontent-length: 5\r\n\r\nhello")
	for cut := 0; cut < len(raw); cut++ {
		_, _, complete, err := ParseRequest(raw[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if complete {
			t.Fatalf("cut %d: premature completion", cut)
		}
	}
	req, n, complete, err := ParseRequest(raw)
	if err != nil || !complete || n != len(raw) {
		t.Fatalf("full parse: %v %v %d", err, complete, n)
	}
	if string(req.Body) != "hello" {
		t.Fatalf("body = %q", req.Body)
	}
}

func TestParseRequestTrailingBytes(t *testing.T) {
	raw := []byte("GET / HTTP/1.0\r\n\r\nEXTRA")
	_, n, complete, err := ParseRequest(raw)
	if err != nil || !complete {
		t.Fatal(err)
	}
	if string(raw[n:]) != "EXTRA" {
		t.Fatalf("leftover = %q", raw[n:])
	}
}

func TestParseRequestErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("GARBAGE\r\n\r\n"),
		[]byte("GET /\r\n\r\n"), // missing version
		[]byte("GET / HTTP/1.0\r\nbadheader\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\ncontent-length: -3\r\n\r\n"),
		[]byte("GET / HTTP/1.0\r\ncontent-length: xyz\r\n\r\n"),
	}
	for _, raw := range bad {
		if _, _, _, err := ParseRequest(raw); err == nil {
			t.Errorf("%q: expected error", raw)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:  "POST",
		Path:    "/store",
		Query:   map[string]string{"d": "v"},
		Headers: map[string]string{"authorization": "bob pw"},
		Body:    []byte("payload"),
	}
	raw := FormatRequest(req)
	back, n, complete, err := ParseRequest(raw)
	if err != nil || !complete || n != len(raw) {
		t.Fatalf("round trip: %v %v", err, complete)
	}
	if back.Method != "POST" || back.Path != "/store" || back.Query["d"] != "v" {
		t.Fatalf("back = %+v", back)
	}
	if !bytes.Equal(back.Body, req.Body) {
		t.Fatalf("body = %q", back.Body)
	}
	u, p, _ := back.User()
	if u != "bob" || p != "pw" {
		t.Fatalf("auth = %q %q", u, p)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	raw := FormatResponse(200, map[string]string{"x-test": "1"}, []byte("body!"))
	resp, n, complete, err := ParseResponse(raw)
	if err != nil || !complete || n != len(raw) {
		t.Fatalf("parse: %v %v", err, complete)
	}
	if resp.Status != 200 || string(resp.Body) != "body!" || resp.Headers["x-test"] != "1" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestResponseStatusTexts(t *testing.T) {
	for _, code := range []int{200, 400, 401, 403, 404, 500, 599} {
		raw := FormatResponse(code, nil, nil)
		resp, _, complete, err := ParseResponse(raw)
		if err != nil || !complete || resp.Status != code {
			t.Fatalf("code %d: %v %v %+v", code, err, complete, resp)
		}
	}
}

func TestResponseIncremental(t *testing.T) {
	raw := FormatResponse(200, nil, []byte("0123456789"))
	for cut := 0; cut < len(raw); cut++ {
		_, _, complete, err := ParseResponse(raw[:cut])
		if err != nil || complete {
			t.Fatalf("cut %d: err=%v complete=%v", cut, err, complete)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("NOTHTTP 200 OK\r\n\r\n"),
		[]byte("HTTP/1.0 abc OK\r\n\r\n"),
		[]byte("HTTP/1.0 200 OK\r\nbad\r\n\r\n"),
	}
	for _, raw := range bad {
		if _, _, _, err := ParseResponse(raw); err == nil {
			t.Errorf("%q: expected error", raw)
		}
	}
}

func TestNoAuth(t *testing.T) {
	req := &Request{Headers: map[string]string{}}
	if _, _, ok := req.User(); ok {
		t.Error("missing auth should not parse")
	}
	req.Headers["authorization"] = "justuser"
	if _, _, ok := req.User(); ok {
		t.Error("malformed auth should not parse")
	}
}

func TestServiceEdgeCases(t *testing.T) {
	cases := map[string]string{
		"/":          "",
		"/a":         "a",
		"/a/b":       "a",
		"/store/x/y": "store",
	}
	for path, want := range cases {
		r := &Request{Path: path}
		if got := r.Service(); got != want {
			t.Errorf("Service(%q) = %q, want %q", path, got, want)
		}
	}
}

// FuzzParseRequest holds ParseRequest, which the demux runs on raw network
// bytes while it holds ⋆ for every user, to its framing contract: it never
// panics; a complete parse consumes 0 < n ≤ len(b) bytes; b[:n] alone
// parses complete with the same n; and no strict prefix of b[:n] parses
// complete, so a request's end never depends on bytes behind it.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /echo?n=11 HTTP/1.0\r\nauthorization: u0007 pw0007\r\n\r\n",
		"GET /echo?n=11 HTTP/1.0\r\nauthorization: u0007 pw0007\r\nconnection: keep-alive\r\n\r\n",
		"GET /store?q=a HTTP/1.0\r\nauthorization: alice pw\r\nconnection: keep-alive\r\n\r\n" +
			"GET /store?d=b&x= HTTP/1.0\r\nauthorization: alice pw\r\nconnection: keep-alive\r\n\r\nGET /",
		"POST /w HTTP/1.0\r\ncontent-length: 5\r\n\r\nhelloGET / HTTP/1.0\r\n\r\n",
		"POST /w HTTP/1.0\r\ncontent-length: 9\r\n\r\nshort",
		"GET / HTTP/1.0\r\ncontent-length: -1\r\n\r\n",
		"GET /\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, n, complete, err := ParseRequest(b)
		if !complete {
			return
		}
		if err != nil {
			t.Fatalf("complete parse with error %v", err)
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if _, n2, complete2, err2 := ParseRequest(b[:n]); !complete2 || n2 != n || err2 != nil {
			t.Fatalf("b[:%d] alone: n=%d complete=%v err=%v", n, n2, complete2, err2)
		}
		// Every prefix is quadratic work; the demux refuses requests long
		// before this size, so larger inputs skip the walk.
		if n > 32<<10 {
			return
		}
		for m := 0; m < n; m++ {
			if _, _, c, _ := ParseRequest(b[:m]); c {
				t.Fatalf("strict prefix b[:%d] of a %d-byte request parses complete", m, n)
			}
		}
	})
}
