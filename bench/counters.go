package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"

	"github.com/gates-middleware/gates/internal/pipeline"
)

// counters are the process-wide readings the layer metrics are differences
// of: the Go heap, the kernel's accounting of this process, and the packet
// pool.
type counters struct {
	mallocs, allocBytes   uint64
	gcCycles              uint32
	cpuNS                 int64  // user + system
	ctxSwitches           int64  // voluntary + involuntary
	readCalls, writeCalls uint64 // /proc/self/io syscr, syscw
	poolGets, poolMisses  uint64
	maxRSSKB              int64 // a high-water mark, not a difference
}

func readCounters() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcCycles = ms.Mallocs, ms.TotalAlloc, ms.NumGC

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
		c.ctxSwitches = ru.Nvcsw + ru.Nivcsw
		c.maxRSSKB = ru.Maxrss
	}
	// /proc/self/io may be unreadable in a restricted container; the
	// syscall-count metrics then read zero, which the README says means
	// "not measured".
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			k, v, ok := bytes.Cut(line, []byte(": "))
			if !ok {
				continue
			}
			n, _ := strconv.ParseUint(string(v), 10, 64)
			switch string(k) {
			case "syscr":
				c.readCalls = n
			case "syscw":
				c.writeCalls = n
			}
		}
	}
	ps := pipeline.ReadPoolStats()
	c.poolGets, c.poolMisses = ps.Gets, ps.Misses
	return c
}

// sub returns the counters accumulated since start; maxRSSKB stays the
// later reading.
func (c counters) sub(start counters) counters {
	return counters{
		mallocs:     c.mallocs - start.mallocs,
		allocBytes:  c.allocBytes - start.allocBytes,
		gcCycles:    c.gcCycles - start.gcCycles,
		cpuNS:       c.cpuNS - start.cpuNS,
		ctxSwitches: c.ctxSwitches - start.ctxSwitches,
		readCalls:   c.readCalls - start.readCalls,
		writeCalls:  c.writeCalls - start.writeCalls,
		poolGets:    c.poolGets - start.poolGets,
		poolMisses:  c.poolMisses - start.poolMisses,
		maxRSSKB:    c.maxRSSKB,
	}
}
