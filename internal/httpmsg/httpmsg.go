// Package httpmsg is a minimal HTTP/1.0 request/response codec used by the
// OKWS server and the load generator. It supports exactly what the paper's
// evaluation needs: GET/POST with a path, query parameters, a plain
// "Authorization: user pass" credential header, Content-Length bodies, and
// connection-close framing.
package httpmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string            // path without query string
	Query   map[string]string // parsed query parameters
	Headers map[string]string // lower-cased names
	Body    []byte
}

// User returns the "Authorization: <user> <password>" credentials.
func (r *Request) User() (user, pass string, ok bool) {
	auth := r.Headers["authorization"]
	if auth == "" {
		return "", "", false
	}
	parts := strings.SplitN(auth, " ", 2)
	if len(parts) != 2 {
		return "", "", false
	}
	return parts[0], parts[1], true
}

// KeepAlive reports whether the client asked to reuse the connection
// ("Connection: keep-alive"). The codec speaks HTTP/1.0, where close is
// the default; a server honoring this echoes the header on its response
// and leaves the connection open for the next request.
func (r *Request) KeepAlive() bool {
	return strings.EqualFold(r.Headers["connection"], "keep-alive")
}

// Service returns the first path segment, OKWS's worker selector:
// "/store?d=x" → "store".
func (r *Request) Service() string {
	p := strings.TrimPrefix(r.Path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

// ParseRequest incrementally parses buf. complete is false when more bytes
// are needed; when true, n is the number of bytes consumed.
func ParseRequest(buf []byte) (req *Request, n int, complete bool, err error) {
	head, bodyStart, ok := splitHead(buf)
	if !ok {
		return nil, 0, false, nil
	}
	lines := strings.Split(head, "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) != 3 || !strings.HasPrefix(fields[2], "HTTP/") {
		return nil, 0, false, fmt.Errorf("httpmsg: malformed request line %q", lines[0])
	}
	req = &Request{
		Method:  fields[0],
		Headers: make(map[string]string),
		Query:   make(map[string]string),
	}
	rawPath := fields[1]
	if i := strings.IndexByte(rawPath, '?'); i >= 0 {
		req.Path = rawPath[:i]
		for _, kv := range strings.Split(rawPath[i+1:], "&") {
			if kv == "" {
				continue
			}
			k, v, _ := strings.Cut(kv, "=")
			req.Query[k] = v
		}
	} else {
		req.Path = rawPath
	}
	if err := parseHeaders(lines[1:], req.Headers); err != nil {
		return nil, 0, false, err
	}
	clen := 0
	if v := req.Headers["content-length"]; v != "" {
		clen, err = strconv.Atoi(v)
		if err != nil || clen < 0 {
			return nil, 0, false, fmt.Errorf("httpmsg: bad content-length %q", v)
		}
	}
	if len(buf)-bodyStart < clen {
		return nil, 0, false, nil // waiting for body bytes
	}
	req.Body = append([]byte(nil), buf[bodyStart:bodyStart+clen]...)
	return req, bodyStart + clen, true, nil
}

// FormatRequest serializes a request.
func FormatRequest(r *Request) []byte {
	var b strings.Builder
	path := r.Path
	if len(r.Query) > 0 {
		var kvs []string
		for k, v := range r.Query {
			kvs = append(kvs, k+"="+v)
		}
		path += "?" + strings.Join(kvs, "&")
	}
	fmt.Fprintf(&b, "%s %s HTTP/1.0\r\n", r.Method, path)
	for k, v := range r.Headers {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	if len(r.Body) > 0 {
		fmt.Fprintf(&b, "content-length: %d\r\n", len(r.Body))
	}
	b.WriteString("\r\n")
	out := append([]byte(b.String()), r.Body...)
	return out
}

// Response is a parsed HTTP response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// FormatResponse serializes a response with Content-Length framing.
func FormatResponse(status int, headers map[string]string, body []byte) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", status, statusText(status))
	for k, v := range headers {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	fmt.Fprintf(&b, "content-length: %d\r\n\r\n", len(body))
	return append([]byte(b.String()), body...)
}

// ParseResponse incrementally parses a response; same contract as
// ParseRequest.
func ParseResponse(buf []byte) (resp *Response, n int, complete bool, err error) {
	head, bodyStart, ok := splitHead(buf)
	if !ok {
		return nil, 0, false, nil
	}
	lines := strings.Split(head, "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "HTTP/") {
		return nil, 0, false, fmt.Errorf("httpmsg: malformed status line %q", lines[0])
	}
	status, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, 0, false, fmt.Errorf("httpmsg: bad status %q", fields[1])
	}
	resp = &Response{Status: status, Headers: make(map[string]string)}
	if err := parseHeaders(lines[1:], resp.Headers); err != nil {
		return nil, 0, false, err
	}
	clen := 0
	if v := resp.Headers["content-length"]; v != "" {
		clen, err = strconv.Atoi(v)
		if err != nil || clen < 0 {
			return nil, 0, false, fmt.Errorf("httpmsg: bad content-length %q", v)
		}
	}
	if len(buf)-bodyStart < clen {
		return nil, 0, false, nil
	}
	resp.Body = append([]byte(nil), buf[bodyStart:bodyStart+clen]...)
	return resp, bodyStart + clen, true, nil
}

// splitHead finds the \r\n\r\n header terminator. It searches the bytes
// in place; only the head it returns is copied.
func splitHead(buf []byte) (head string, bodyStart int, ok bool) {
	i := bytes.Index(buf, []byte("\r\n\r\n"))
	if i < 0 {
		return "", 0, false
	}
	return string(buf[:i]), i + 4, true
}

func parseHeaders(lines []string, into map[string]string) error {
	for _, line := range lines {
		if line == "" {
			continue
		}
		k, v, found := strings.Cut(line, ":")
		if !found {
			return fmt.Errorf("httpmsg: malformed header %q", line)
		}
		into[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return nil
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}
