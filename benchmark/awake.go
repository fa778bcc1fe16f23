package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// spinEnv marks a child process as a keep-awake spinner (see keepAwake).
const spinEnv = "ATOMICCOMMIT_BENCH_SPIN"

// keepAwake starts one idle-priority spinner process per CPU and returns
// the function that stops them and waits for them.
//
// The four timer-bound workloads leave the sandbox's CPUs idle most of the
// time, and what an idle virtual CPU costs to wake (the host has descheduled
// it, its clock is down, its caches are cold) depends on what else the host
// is doing: cpu_us_per_commit moved by a third between spells on unchanged
// code. The spinners run in the kernel's idle scheduling class, so they get
// only the cycles nothing else wants and any thread of the benchmark
// preempts them at once, but the CPUs never go idle — the userland form of
// switching off C-states and frequency scaling on a benchmark machine. They
// are processes of their own, so getrusage(RUSAGE_SELF) does not count them.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var (
		cmds  []*exec.Cmd
		pipes []io.Closer
	)
	stop = func() {
		for _, p := range pipes {
			p.Close()
		}
		for _, c := range cmds {
			c.Wait() // a spinner's exit status says nothing once it was told to stop
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), spinEnv+"=1", "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		// A spinner lives as long as its standard input is open: it ends
		// when stop closes the pipe, and also if this process dies.
		in, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			in.Close()
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			in.Close()
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		cmds, pipes = append(cmds, cmd), append(pipes, in)
		// The spinner writes one line once it spins in the idle class.
		if line, err := bufio.NewReader(out).ReadString('\n'); err != nil {
			stop()
			return nil, fmt.Errorf("spinner did not start (%q): %w", line, err)
		}
	}
	return stop, nil
}

// spin is a spinner's main: enter the idle scheduling class, say so, and
// burn cycles until standard input closes.
func spin() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: spinner cannot enter the idle scheduling class:", errno)
		os.Exit(1)
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	fmt.Println("spinning")
	for {
	}
}
