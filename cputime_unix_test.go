//go:build unix

package batchals

import (
	"syscall"
	"time"
)

// processTime returns the CPU time, user plus system, that this process
// has used so far. A pass timed by it costs the same whatever else shares
// the CPUs, which wall time does not: under `go test ./...` other
// packages' test processes run alongside.
func processTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
