// Command okws-demo boots the full OKWS stack (Figure 1) with three
// services — a session store, a per-user notes database, and a declassifier
// — provisions two users, and narrates a sequence of requests that
// demonstrate kernel-enforced user isolation.
package main

import (
	"fmt"
	"os"

	"asbestos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "okws-demo:", err)
		os.Exit(1)
	}
}

func run() error {
	store := func(c *asbestos.WebCtx, req *asbestos.Request) *asbestos.Response {
		prev := c.SessionLoad()
		if d, ok := req.Query["d"]; ok {
			c.SessionStore([]byte(d))
		}
		return &asbestos.Response{Status: 200, Body: prev}
	}
	notes := func(c *asbestos.WebCtx, req *asbestos.Request) *asbestos.Response {
		if d, ok := req.Query["add"]; ok {
			if _, err := c.Query("INSERT INTO notes (text) VALUES (?)", d); err != nil {
				return &asbestos.Response{Status: 500, Body: []byte(err.Error())}
			}
			return &asbestos.Response{Status: 200}
		}
		rows, err := c.Query("SELECT text FROM notes")
		if err != nil {
			return &asbestos.Response{Status: 500, Body: []byte(err.Error())}
		}
		var out []byte
		for _, r := range rows {
			out = append(out, r[0]...)
			out = append(out, '\n')
		}
		return &asbestos.Response{Status: 200, Body: out}
	}
	publish := func(c *asbestos.WebCtx, req *asbestos.Request) *asbestos.Response {
		if _, err := c.Declassify("UPDATE notes SET text = ? WHERE text = ?",
			req.Query["t"], req.Query["t"]); err != nil {
			return &asbestos.Response{Status: 500, Body: []byte(err.Error())}
		}
		return &asbestos.Response{Status: 200}
	}

	srv, err := asbestos.LaunchWeb(asbestos.WebConfig{
		Seed: 2005,
		Services: []asbestos.WebService{
			{Name: "store", Handler: store},
			{Name: "notes", Handler: notes},
			{Name: "publish", Handler: publish, Declassifier: true},
		},
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	srv.Database.Exec("CREATE TABLE notes (text, _uid)")

	for _, u := range [][3]string{{"alice", "pw-a", "1"}, {"bob", "pw-b", "2"}} {
		if err := srv.AddUser(u[0], u[1], u[2]); err != nil {
			return err
		}
	}
	fmt.Println("OKWS on Asbestos: netd, ok-demux, idd, ok-dbproxy and 3 workers running")
	fmt.Println()

	step := func(desc, user, pass, path string) (*asbestos.Response, error) {
		resp, err := asbestos.HTTPGet(srv.Network(), 80, user, pass, path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", desc, err)
		}
		fmt.Printf("%-58s -> %d %q\n", desc+" ["+user+" "+path+"]", resp.Status, resp.Body)
		return resp, nil
	}

	if _, err := step("alice stores session data", "alice", "pw-a", "/store?d=hello-from-alice"); err != nil {
		return err
	}
	if _, err := step("alice reads it back on a NEW connection", "alice", "pw-a", "/store"); err != nil {
		return err
	}
	if _, err := step("bob's session is separate", "bob", "pw-b", "/store"); err != nil {
		return err
	}
	if _, err := step("alice adds a private note", "alice", "pw-a", "/notes?add=my-diary"); err != nil {
		return err
	}
	if _, err := step("bob cannot see alice's note", "bob", "pw-b", "/notes"); err != nil {
		return err
	}
	if _, err := step("alice publishes via declassifier", "alice", "pw-a", "/publish?t=my-diary"); err != nil {
		return err
	}
	if _, err := step("now bob sees the declassified note", "bob", "pw-b", "/notes"); err != nil {
		return err
	}
	if resp, _ := asbestos.HTTPGet(srv.Network(), 80, "mallory", "guess", "/notes"); resp != nil {
		fmt.Printf("%-58s -> %d\n", "mallory fails to authenticate [mallory /notes]", resp.Status)
	}

	fmt.Println()
	fmt.Printf("kernel: %d processes, %d live handles, %d messages dropped by label checks\n",
		srv.Sys.Processes(), srv.Sys.Handles(), srv.Sys.Drops())
	fmt.Println("every cross-user denial above was enforced by kernel label checks, not worker code")
	return nil
}
