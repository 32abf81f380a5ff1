// Command latency regenerates paper Figure 8: median and 90th-percentile
// request latency at client concurrency 4 for Mod-Apache, Apache, and OKWS
// with 1 and N cached sessions.
//
// Usage:
//
//	latency [-conns 2000] [-okws-sessions 1000]
package main

import (
	"flag"
	"fmt"
	"os"

	"asbestos"
)

func main() {
	conns := flag.Int("conns", 2000, "connections per measurement")
	okwsSessions := flag.Int("okws-sessions", 1000, "cached sessions for the large OKWS row")
	flag.Parse()

	rows, err := asbestos.Figure8(*conns, *okwsSessions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "latency:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 8: request latency at concurrency 4 (µs)")
	fmt.Println("paper: Mod-Apache 999/1015, Apache 3374/5262, OKWS@1 1875/2384, OKWS@1000 3414/6767")
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Server,
			fmt.Sprintf("%.0f", r.Median),
			fmt.Sprintf("%.0f", r.P90),
		})
	}
	fmt.Print(asbestos.FormatTable([]string{"server", "median µs", "90th pct µs"}, table))
}
