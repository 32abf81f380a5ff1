//go:build unix

package main

import "syscall"

// cpuMicros is this process's user+system CPU time so far.
func cpuMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) int64 { return int64(t.Sec)*1e6 + int64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}
