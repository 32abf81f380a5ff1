// Command throughput regenerates paper Figure 7: completed connections per
// second for OKWS at various cached-session counts, compared with Apache
// (fork+exec CGI) and Mod-Apache (in-process module).
//
// Usage:
//
//	throughput [-sessions 1,100,1000,...] [-baseconns 2000] [-workers N]
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
	sessions := flag.String("sessions", "1,100,1000,3000,5000,7500,10000",
		"comma-separated cached-session counts")
	baseConns := flag.Int("baseconns", 2000, "connections per baseline run")
	workers := flag.Int("workers", 1,
		"worker replicas per service; >1 adds a multicore sweep over the sharded kernel")
	flag.Parse()

	counts, err := parseInts(*sessions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "throughput:", err)
		os.Exit(1)
	}

	fmt.Println("Figure 7: throughput vs cached OKWS sessions (conns/sec)")
	fmt.Println("paper shape: Mod-Apache > OKWS@1 > Apache > OKWS@10000")
	rows, err := asbestos.Figure7OKWS(counts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "throughput:", err)
		os.Exit(1)
	}
	if *workers > 1 {
		prows, err := asbestos.Figure7OKWSParallel(counts, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput:", err)
			os.Exit(1)
		}
		rows = append(rows, prows...)
	}
	rows = append(rows, asbestos.Figure7Baselines(*baseConns)...)

	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Label,
			fmt.Sprintf("%.0f", r.ConnsPerSec),
			strconv.Itoa(r.Errors),
		})
	}
	fmt.Print(asbestos.FormatTable([]string{"server", "conns/sec", "errors"}, table))
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
