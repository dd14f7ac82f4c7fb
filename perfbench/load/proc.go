package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// server is one locmapd child process with its own ports and journal.
type server struct {
	cmd     *exec.Cmd
	done    chan struct{}
	waitErr error
	base    string
	metrics string
	logPath string
	stopped bool
}

// freePorts asks the kernel for n distinct unused loopback ports. It
// holds every listener until all are picked, so no port comes back
// twice.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startServer spawns locmapd with its shipped defaults plus flags, a
// fresh journal directory under dir, and loopback listeners.
func startServer(bin, dir string, flags []string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	api, met := ports[0], ports[1]
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", api),
		"-metrics", fmt.Sprintf("127.0.0.1:%d", met),
		"-journal-dir", filepath.Join(dir, "journal"),
	}
	args = append(args, flags...)
	logPath := filepath.Join(dir, "locmapd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:     cmd,
		done:    make(chan struct{}),
		base:    fmt.Sprintf("http://127.0.0.1:%d", api),
		metrics: fmt.Sprintf("http://127.0.0.1:%d/metrics", met),
		logPath: logPath,
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start locmapd: %w", err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// exited reports whether the process has ended.
func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context, c *client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		if s.exited() {
			return fmt.Errorf("locmapd exited during start-up: %v (log: %s)", s.waitErr, s.logTail())
		}
		if st, _, err := c.get(ctx, "/readyz"); err == nil && st == 200 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("locmapd not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it outlives the grace period. It returns once the process
// has ended.
func (s *server) stop() error {
	if s.stopped {
		<-s.done
		return nil
	}
	s.stopped = true
	if s.exited() {
		return fmt.Errorf("locmapd exited early: %v", s.waitErr)
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("locmapd ignored SIGTERM for 20s and was killed")
	}
}

// cpuMs returns the process's user+system CPU time in milliseconds.
func (s *server) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return float64(ut+st) * 1000 / clockTicks, nil
}

// hostCPU is the host's aggregate CPU time from /proc/stat, in ticks:
// all of it, and the part stolen by other guests of the hypervisor.
type hostCPU struct {
	total, steal uint64
}

// readHostCPU reads the aggregate "cpu" line of /proc/stat; zero when
// it cannot.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		if i < 8 { // user..steal; guest time is already in user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// logTail returns the last lines of the server log, for error reports.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
