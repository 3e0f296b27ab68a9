//go:build !linux

package main

// rusage is only implemented where the benchmark's figures are recorded;
// elsewhere the proc.cpu and proc.rss metrics read 0.
func rusage() (cpuMs, rssPeakMB float64) { return 0, 0 }
