package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask (1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// first returns a mask holding only m's lowest CPU.
func (m *cpuMask) first() cpuMask {
	var out cpuMask
	for i, w := range m {
		if w != 0 {
			out[i] = w & -w
			break
		}
	}
	return out
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// setAffinity applies mask to every thread the process has; threads the
// Go runtime starts later are cloned from these and inherit it.
func setAffinity(mask cpuMask) error {
	// Twice: a thread started during the first pass is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// pinToOneCPU confines the process to the lowest CPU it may run on.
// GOMAXPROCS is left alone.
//
// The workloads with one operation in flight (point-serial, refit-churn,
// gossip-fleet) run pinned. On a 2-vCPU VM their blocking path is a
// chain of goroutine hand-offs, and when those cross vCPUs each one
// costs an inter-processor wake-up whose price depends on the host's
// halt/poll state: the same binary measured p50 12, 18 and 28 µs on
// point-serial in back-to-back runs (ops_per_s 24k–48k). Pinned, the
// hand-offs stay on one CPU and the same code reads 12.05–12.12 µs, so
// the number follows the software's path length, which is what a later
// change can move. bulk-pipelined keeps every CPU: eight callers keep
// both busy, nothing idles, and core contention is part of what it
// measures.
func pinToOneCPU() error {
	all, err := getAffinity()
	if err != nil {
		return err
	}
	return setAffinity(all.first())
}
