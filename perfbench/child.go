package main

import (
	"bufio"
	"context"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running hbold server process.
type child struct {
	cmd   *exec.Cmd
	addr  string // host:port
	base  string // http://host:port
	setup time.Duration
	log   *os.File
	done  chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startChild execs `hbold <args...> -addr <free port>` and waits until
// probe (a path on the server) answers 2xx, recording the time from exec
// to that first successful request as the set-up time.
func startChild(bin, logPath, probe string, timeout time.Duration, args ...string) (*child, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	sub := args[0]
	full := append([]string{sub, "-addr", addr}, args[1:]...)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, full...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	// the server dies with the harness, even if the harness is killed
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, addr: addr, base: "http://" + addr, log: lf, done: make(chan struct{})}
	go func() { cmd.Wait(); close(c.done) }()
	probeClient := &http.Client{Timeout: 2 * time.Second}
	deadline := t0.Add(timeout)
	for {
		select {
		case <-c.done:
			lf.Close()
			return nil, fmt.Errorf("hbold %s exited during set-up (log: %s)", sub, tailFile(logPath))
		default:
		}
		resp, err := probeClient.Get(c.base + probe)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				c.setup = time.Since(t0)
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("hbold %s not ready after %s", sub, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (c *child) kill() {
	if c.alive() {
		c.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-c.done
	c.log.Close()
}

// procField reads one "Key: value kB" style field of /proc/<pid>/<file>.
func (c *child) procField(file, key string) (float64, bool) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), file))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(fs[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// rssPeakMB is the process's VmHWM in MiB.
func (c *child) rssPeakMB() float64 {
	kb, _ := c.procField("status", "VmHWM")
	return kb / 1024
}

// writeBytes is the process's cumulative write_bytes from /proc/<pid>/io.
func (c *child) writeBytes() float64 {
	v, _ := c.procField("io", "write_bytes")
	return v
}

// tailFile returns the last few hundred bytes of a log, for error text.
func tailFile(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// copyDirStable copies the regular files of dir into an empty dst. A
// background compaction may swap segments meanwhile, so the copy is
// repeated until dir's listing is the same before and after it.
func copyDirStable(dir, dst string) error {
	for try := 0; try < 20; try++ {
		before, err := listing(dir)
		if err != nil {
			return err
		}
		os.RemoveAll(dst)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		ok := true
		for name := range before {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				ok = false
				break
			}
			if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
				return err
			}
		}
		after, err := listing(dir)
		if err != nil {
			return err
		}
		if ok && maps.Equal(before, after) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s kept changing while it was copied", dir)
}

// listing maps each regular file directly under dir to its size and
// modification time.
func listing(dir string) (map[string]string, error) {
	es, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range es {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		out[e.Name()] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
	}
	return out, nil
}

// setups is the outcome of setupRepeated: the server left running, the
// median set-up time, and the peak RSS of the servers already stopped.
type setups struct {
	c      *child
	setupS float64
	rss    []float64
}

// rssMB is the median VmHWM over every set-up's server, the running one
// read now. A server's peak is set while it loads its data, and where it
// lands depends on when the Go GC runs, so one process's figure wanders.
func (s *setups) rssMB() float64 { return median(append(s.rss, s.c.rssPeakMB())) }

// setupRepeated starts the server reps times and keeps the last one
// running. Each start gets fresh inputs from start (a new data dir).
func setupRepeated(ctx context.Context, reps int, start func(i int) (*child, error)) (*setups, error) {
	var times []float64
	s := &setups{}
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := start(i)
		if err != nil {
			return nil, err
		}
		times = append(times, c.setup.Seconds())
		if i < reps-1 {
			s.rss = append(s.rss, c.rssPeakMB())
			c.kill()
		}
		s.c = c
	}
	s.setupS = median(times)
	return s, nil
}

// freshDir empties dir and returns it.
func freshDir(dir string) string {
	os.RemoveAll(dir)
	return dir
}
