package asbestos

// The evaluation surface of the facade: the figure/table generators of the
// paper's §9 and the measurement plumbing they report through. cmd/
// binaries (throughput, latency, membench, labelcost) are thin wrappers
// over these.

import (
	"asbestos/internal/experiments"
	"asbestos/internal/stats"
)

// Figure rows, one type per figure of §9.
type (
	Fig6Row = experiments.Fig6Row
	Fig7Row = experiments.Fig7Row
	Fig8Row = experiments.Fig8Row
	Fig9Row = experiments.Fig9Row
)

// Figure6 measures memory per cached/active session; Figure7OKWS and
// Figure7OKWSParallel measure throughput (single-loop versus replicated
// workers + sharded trusted services); Figure7Baselines the Apache
// models; Figure8 the latency table; Figure9 per-component
// Kcycles/connection.
var (
	Figure6             = experiments.Figure6
	Figure7OKWS         = experiments.Figure7OKWS
	Figure7OKWSParallel = experiments.Figure7OKWSParallel
	Figure7Baselines    = experiments.Figure7Baselines
	Figure8             = experiments.Figure8
	Figure9             = experiments.Figure9
)

// DefaultSessions is the paper's Figure 7/9 x-axis.
var DefaultSessions = experiments.DefaultSessions

// Profiler attributes measured time to the paper's five components;
// Category names one of them.
type (
	Profiler = stats.Profiler
	Category = stats.Category
)

// NewProfiler creates an empty profiler (pass via WithProfiler or
// WebConfig.Profiler).
var NewProfiler = stats.NewProfiler

// Categories lists the report categories in display order.
var Categories = stats.Categories

// FormatTable renders rows as the aligned text table the cmd/ binaries
// print.
var FormatTable = stats.Table
