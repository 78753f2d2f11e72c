package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// On a VM, a CPU with nothing to run halts, and waking it again goes
// through the host's scheduler. At explore's few hundred requests per
// second every request finds the server's CPU halted, and those wake-ups
// made up most of a cache hit's latency; when other tenants loaded the
// host, they grew and the median doubled for tens of seconds at a time.
// While explore's load runs, a helper process therefore keeps every CPU
// busy with a loop at the SCHED_IDLE policy, which any runnable thread
// preempts at once: the effect of booting with idle=poll. The server's
// wake-ups then stay inside the guest.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinIdle runs one SCHED_IDLE busy loop per CPU and never returns; it
// is the body of `perfbench -idle-spin`.
func spinIdle() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param int32 // sched_priority, 0 for SCHED_IDLE
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				fmt.Fprintln(os.Stderr, "perfbench: sched_setscheduler:", e)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}

// keepCPUsAwake starts the idle-spin helper and returns the function
// that stops it and waits for it to end; calling it again does nothing.
func keepCPUsAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-idle-spin")
	cmd.Stderr = os.Stderr
	// the helper dies with the harness, even if the harness is killed
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}, nil
}
