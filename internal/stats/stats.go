// Package stats provides measurement plumbing for the evaluation harness:
// per-component cycle accounting (Figure 9), latency percentiles (Figure 8),
// and page/byte accounting (Figure 6), plus the scalable counters the
// sharded kernel uses so that hot-path accounting never funnels through a
// single mutex.
package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Category identifies an evaluation cost component, matching the series of
// paper Figure 9.
type Category int

const (
	// CatKernelIPC is time in send/recv and label operations.
	CatKernelIPC Category = iota
	// CatNetwork is time in netd code.
	CatNetwork
	// CatOKWS is time in OKWS code (demux, workers, idd).
	CatOKWS
	// CatOKDB is time in the database engine and ok-dbproxy.
	CatOKDB
	// CatOther is everything else.
	CatOther

	numCategories
)

func (c Category) String() string {
	switch c {
	case CatKernelIPC:
		return "Kernel IPC"
	case CatNetwork:
		return "Network"
	case CatOKWS:
		return "OKWS"
	case CatOKDB:
		return "OKDB"
	case CatOther:
		return "Other"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories lists all defined categories in display order.
func Categories() []Category {
	return []Category{CatOKDB, CatOKWS, CatKernelIPC, CatNetwork, CatOther}
}

// Profiler accumulates wall time per category. It is safe for concurrent
// use and lock-free: every syscall on the sharded kernel records here, so a
// mutex would reintroduce the global serialization the sharding removed. A
// nil *Profiler is valid and records nothing, so components can be
// instrumented unconditionally.
type Profiler struct {
	total [numCategories]atomic.Int64 // nanoseconds
	count [numCategories]atomic.Int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Add records d in category c.
func (p *Profiler) Add(c Category, d time.Duration) {
	if p == nil {
		return
	}
	p.total[c].Add(int64(d))
	p.count[c].Add(1)
}

// Time starts a timer for category c; call the returned func to stop it.
// Usage: defer prof.Time(stats.CatNetwork)().
func (p *Profiler) Time(c Category) func() {
	if p == nil {
		return func() {}
	}
	start := time.Now()
	return func() { p.Add(c, time.Since(start)) }
}

// Total returns the accumulated duration for c.
func (p *Profiler) Total(c Category) time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.total[c].Load())
}

// Count returns the number of samples recorded for c.
func (p *Profiler) Count(c Category) int64 {
	if p == nil {
		return 0
	}
	return p.count[c].Load()
}

// Reset zeroes all categories. Concurrent Adds may survive a Reset; callers
// quiesce the workload first, as the experiment harness does.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for c := range p.total {
		p.total[c].Store(0)
		p.count[c].Store(0)
	}
}

// NominalGHz is the clock rate used to express measured nanoseconds as
// cycles, matching the paper's 2.8 GHz Pentium 4 testbed so Figure 9's
// y-axis has comparable units.
const NominalGHz = 2.8

// Kcycles converts a duration to thousands of nominal CPU cycles.
func Kcycles(d time.Duration) float64 {
	return float64(d.Nanoseconds()) * NominalGHz / 1000.0
}

// KcyclesPer returns Total(c) expressed in Kcycles divided by n (e.g.
// per-connection cost).
func (p *Profiler) KcyclesPer(c Category, n int) float64 {
	if n == 0 {
		return 0
	}
	return Kcycles(p.Total(c)) / float64(n)
}

// MemReport aggregates memory accounting for Figure 6.
type MemReport struct {
	KernelBytes int // kernel data structures: processes, EPs, vnodes, labels, queues
	UserPages   int // user-visible 4 KiB pages
}

// TotalPages returns total memory expressed in 4 KiB pages, the unit of
// Figure 6's y-axis ("includes all memory allocated by both kernel and user
// programs").
func (m MemReport) TotalPages() float64 {
	return float64(m.UserPages) + float64(m.KernelBytes)/4096.0
}

func (m MemReport) String() string {
	return fmt.Sprintf("%.1f pages (%d user pages + %d kernel bytes)",
		m.TotalPages(), m.UserPages, m.KernelBytes)
}

// Table renders rows of figures as an aligned text table; the benchmark
// binaries use it to print paper-style tables.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, hcell := range header {
		width[i] = len(hcell)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
