package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(uint(cpu)%64)) != 0 }
func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (uint(cpu) % 64) }

// cpus lists the CPUs in the mask in ascending order.
func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// allowedCPUs reads the calling thread's affinity mask.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// setProcessAffinity applies the mask to every thread the process has now;
// threads the runtime creates later are cloned from one of these and inherit
// it. A thread that exits between the directory read and the call is not an
// error.
func setProcessAffinity(m *cpuMask) error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return fmt.Errorf("list threads: %w", err)
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// isolation is how a workload's process is confined. CPU-bound closed-loop
// workloads run on one CPU with one P, where per-layer costs add up and the
// cross-core hand-off cost (which swings ±20 % between invocations on a
// shared 2-vCPU box as threads migrate) does not exist; timer-driven
// workloads need a second P so the generator and the path under test do not
// queue behind each other.
type isolation struct {
	procs  int  // GOMAXPROCS
	pinned bool // every thread on the highest-numbered allowed CPU
}

// applied records how the process is confined right now, for the env block.
type applied struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	PinnedCPU  int   `json:"pinned_cpu"` // -1 when unpinned
	Allowed    []int `json:"allowed_cpus"`
}

// isolator applies isolations to the whole process and remembers the
// affinity mask the process started with, so a pinned process can be let
// loose again.
type isolator struct {
	allowed cpuMask
	now     applied
}

func newIsolator() (*isolator, error) {
	m, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	return &isolator{allowed: m, now: applied{GOMAXPROCS: runtime.GOMAXPROCS(0), PinnedCPU: -1, Allowed: m.cpus()}}, nil
}

// apply confines every thread of the process as iso says. It runs before the
// workload starts any goroutine that matters: first thing in a run.
func (is *isolator) apply(iso isolation) error {
	cpus := is.allowed.cpus()
	mask, pinned := is.allowed, -1
	if iso.pinned {
		pinned = cpus[len(cpus)-1]
		mask = cpuMask{}
		mask.set(pinned)
	}
	if err := setProcessAffinity(&mask); err != nil {
		return err
	}
	procs := min(iso.procs, len(cpus))
	runtime.GOMAXPROCS(procs)
	is.now = applied{GOMAXPROCS: procs, PinnedCPU: pinned, Allowed: cpus}
	return nil
}

// nanosleep blocks the calling OS thread for d. Unlike time.Sleep it does
// not go through the runtime's timer heap and netpoller, whose wake-up
// resolution is about a millisecond once a P has parked.
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// envBlock describes the host a result came from, so a noisy or unusual
// machine is visible in the artifact rather than inferred from the numbers.
type envBlock struct {
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	GoVersion   string  `json:"go_version"`
	TimeSleepUS float64 `json:"time_sleep_100us_us"`
	NanosleepUS float64 `json:"nanosleep_100us_us"`
	applied
}

func readEnv(a applied) envBlock {
	e := envBlock{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		applied:   a,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	e.TimeSleepUS = medianSleepUS(time.Sleep)
	e.NanosleepUS = medianSleepUS(nanosleep)
	return e
}

// medianSleepUS measures how long a requested 100 µs sleep really takes.
func medianSleepUS(sleep func(time.Duration)) float64 {
	const rounds = 21
	got := make([]float64, rounds)
	for i := range got {
		t0 := time.Now()
		sleep(100 * time.Microsecond)
		got[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	sort.Float64s(got)
	return got[rounds/2]
}
