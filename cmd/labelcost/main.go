// Command labelcost regenerates paper Figure 9: the average cost, in
// thousands of (nominal 2.8 GHz) CPU cycles per connection, of each system
// component as the number of cached OKWS sessions increases.
//
// Usage:
//
//	labelcost [-sessions 1,100,1000,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"asbestos"
)

func main() {
	sessions := flag.String("sessions", "1,100,1000,3000,5000,7500,10000",
		"comma-separated cached-session counts")
	flag.Parse()

	counts, err := parseInts(*sessions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labelcost:", err)
		os.Exit(1)
	}

	rows, err := asbestos.Figure9(counts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "labelcost:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 9: average Kcycles/connection by component vs cached sessions")
	fmt.Println("paper shape: OKDB and Kernel IPC grow linearly; Kernel IPC passes Network ≈3k sessions")
	fmt.Println("(here a label operation costs the chunks it changes, not the entries it spans,")
	fmt.Println(" which flattens the label curves; cachehit is the hit ratio of the ⊑ memo and")
	fmt.Println(" the interned single-entry labels)")
	header := []string{"sessions"}
	for _, c := range asbestos.Categories() {
		header = append(header, c.String())
	}
	header = append(header, "total", "cachehit", "drops")
	var table [][]string
	for _, r := range rows {
		row := []string{strconv.Itoa(r.Sessions)}
		for _, c := range asbestos.Categories() {
			row = append(row, fmt.Sprintf("%.0f", r.Kcycles[c]))
		}
		var drops uint64
		for _, n := range r.Drops {
			drops += n
		}
		row = append(row,
			fmt.Sprintf("%.0f", r.Total),
			fmt.Sprintf("%.2f", r.CacheHitRate),
			strconv.FormatUint(drops, 10))
		table = append(table, row)
	}
	fmt.Print(asbestos.FormatTable(header, table))

	// Silent drops are legal under the paper's §4 contract, but WHERE they
	// land matters: break each row down by the receiving process's port
	// class so queue pressure is attributable to a component.
	for _, r := range rows {
		if len(r.Drops) == 0 {
			continue
		}
		classes := make([]string, 0, len(r.Drops))
		for class := range r.Drops {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		fmt.Printf("drops @ %d sessions:", r.Sessions)
		for _, class := range classes {
			fmt.Printf(" %s=%d", class, r.Drops[class])
		}
		fmt.Println()
	}
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
