//go:build !unix

package batchals

import "time"

var processStart = time.Now()

// processTime falls back to wall time where getrusage is not available.
func processTime() time.Duration { return time.Since(processStart) }
