package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A closed loop leaves each CPU idle for a fraction of a millisecond many
// times per call, and on this virtual machine a CPU that idles comes back
// slowly and at a varying speed: the same binary and seed then run in one
// of two modes a third apart, for seconds or for whole runs (README,
// noise floor). keepAwake holds every CPU busy with a thread of the
// lowest scheduling class, SCHED_IDLE, which runs only when nothing else
// wants the CPU and yields to any thread of the benchmark at once. The
// host then sees busy CPUs throughout, as it would under `idle=poll`, and
// the benchmark runs in the fast mode.
//
// The spinners are a child process, this binary started again with
// spinEnv set, so that their CPU time stays out of this process's
// getrusage. stop kills the child and waits for it.

const spinEnv = "BENCH_SPIN_CHILD"

func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spinEnv+"=1")
	cmd.Stderr = os.Stderr
	// The child dies with this process even if this process is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill() // an error means the child has already gone
		_ = cmd.Wait()         // reports the kill
	}, nil
}

// spin is the child: one SCHED_IDLE thread pinned to each CPU this
// process may run on, each in an empty loop until the process is killed.
func spin() {
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintln(os.Stderr, "bench: sched_getaffinity:", e)
		os.Exit(1)
	}
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		go func() {
			runtime.LockOSThread()
			var one [16]uint64
			one[cpu/64] = 1 << (cpu % 64)
			const schedIdle = 5
			var param int32 // sched_priority 0
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e == 0 {
				_, _, e = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			}
			if e != 0 {
				// Spinning in the normal class would take the CPUs from
				// the benchmark.
				fmt.Fprintln(os.Stderr, "bench: cannot spin at idle priority:", e)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}
