package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dirs locates the repository root and the benchmark's own directory from
// the working directory, which is bench/ under `go run -C bench .` and
// `go test`, and may be the root when the built binary is run from there.
func dirs() (root, bench string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for _, cand := range []string{wd, filepath.Join(wd, "bench")} {
		mod, rerr := os.ReadFile(filepath.Join(cand, "go.mod"))
		if rerr == nil && strings.Contains(string(mod), "module overprov/bench") {
			return filepath.Dir(cand), cand, nil
		}
	}
	return "", "", fmt.Errorf("run from the repository root or from bench/ (no bench/go.mod near %s)", wd)
}

// buildSchedd compiles cmd/schedd from the tree into bench/out and returns
// the binary's path and how long the build took.
func buildSchedd(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "schedd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schedd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building cmd/schedd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// janitor owns everything a run must not leave behind: child processes and
// scratch directories. Every exit path, signals included, goes through
// cleanup.
type janitor struct {
	//overprov:lock rank=90
	mu       sync.Mutex
	children []*child
	dirs     []string
}

var cleaner janitor

func (j *janitor) addChild(c *child) {
	j.mu.Lock()
	j.children = append(j.children, c)
	j.mu.Unlock()
}

func (j *janitor) addDir(d string) {
	j.mu.Lock()
	j.dirs = append(j.dirs, d)
	j.mu.Unlock()
}

// cleanup kills and reaps every child still alive, then removes the
// scratch directories.
func (j *janitor) cleanup() {
	j.mu.Lock()
	children, dirs := j.children, j.dirs
	j.children, j.dirs = nil, nil
	j.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// onSignal cleans up and exits when the benchmark itself is interrupted.
func (j *janitor) onSignal() {
	ch := make(chan os.Signal, 1)
	// SIGPIPE too: a reader that closes the pipe (`| head`) must not leave
	// daemons behind.
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGQUIT, syscall.SIGPIPE)
	go func() {
		<-ch
		j.cleanup()
		os.Exit(130)
	}()
}

// child is one schedd process.
type child struct {
	role string // "backend", "router" or "follower"
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// startChild execs the schedd binary with args, logging to logPath.
func startChild(role, bin, logPath string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A safety net for the one exit the janitor cannot see, SIGKILL of the
	// benchmark itself: the kernel then kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	c := &child{role: role, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		_ = logf.Close()
		close(c.done)
	}()
	cleaner.addChild(c)
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// kill ends the child at once and waits for it.
func (c *child) kill() {
	if !c.exited() {
		_ = c.cmd.Process.Kill()
	}
	<-c.done
}

// usage is a finished child's resource accounting.
type usage struct {
	CPU       time.Duration // user + system
	PeakRSSMB float64
}

// drain asks the child to shut down gracefully (SIGTERM, which makes a
// backend take its final snapshot) and waits; a child that outlives the
// timeout is killed and reported.
func (c *child) drain(timeout time.Duration) (usage, error) {
	if c.exited() {
		return usage{}, fmt.Errorf("%s exited before it was drained: %v", c.role, c.cmd.ProcessState)
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.kill()
		err = fmt.Errorf("%s did not drain within %v", c.role, timeout)
	}
	ps := c.cmd.ProcessState
	u := usage{CPU: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	if err == nil && !ps.Success() {
		err = fmt.Errorf("%s exited with %v", c.role, ps)
	}
	return u, err
}

// selfCPU is the generator's own user + system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// waitFor polls cond every 2 ms until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
