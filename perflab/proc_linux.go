package main

import "syscall"

// rusage returns the process's CPU time so far in milliseconds and its peak
// resident set in MiB (Linux reports Maxrss in KiB).
func rusage() (cpuMs, rssPeakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}
