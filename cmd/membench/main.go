// Command membench regenerates paper Figure 6: total memory used by active
// and cached Web sessions as a function of the number of sessions.
//
// Usage:
//
//	membench [-sessions 1000,2000,...] [-kb 1] [-active]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"asbestos"
)

func main() {
	sessions := flag.String("sessions", "100,500,1000,2000,4000",
		"comma-separated session counts")
	kb := flag.Int("kb", 1, "session payload size in KB")
	active := flag.Bool("active", false, "measure active (never-cleaned) sessions instead of cached ones")
	flag.Parse()

	counts, err := parseInts(*sessions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "membench:", err)
		os.Exit(1)
	}

	fmt.Println("Figure 6: memory used by Web sessions (paper: ~1.5 pages/cached, +8 pages/active)")
	res, err := asbestos.Figure6(counts, *active, *kb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "membench:", err)
		os.Exit(1)
	}
	kind := "cached"
	if *active {
		kind = "active"
	}
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{
			kind,
			strconv.Itoa(r.Sessions),
			fmt.Sprintf("%.0f", r.TotalPages),
			fmt.Sprintf("%.2f", r.PagesPerSession),
		})
	}
	fmt.Print(asbestos.FormatTable(
		[]string{"variant", "sessions", "total pages", "pages/session"}, rows))
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad session count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
