//go:build !unix

package main

// cpuMicros has no portable source; cpu_us_per_req reads 0 off unix.
func cpuMicros() int64 { return 0 }
