package main

import (
	"context"
	"fmt"
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

// serveProc is one running cmd/serve child.
type serveProc struct {
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once cmd.Wait has returned
}

// ringRole puts a child into cluster mode: self is derived from the child's
// own address, seed is the member it joins through ("" = seed itself, the
// first member of a new ring).
type ringRole struct {
	seed string
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding cmd/serve — so the benchmark works from the root (how
// BENCHMARK.json runs it) and from bench/ (how `go test` runs it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/serve above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServe compiles cmd/serve into the build directory (untimed; a no-op
// when the binary is current) and returns its path.
func buildServe(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/serve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port and returns it as
// host:port. The listener is closed before the child binds the port;
// nothing else on the box races for ephemeral loopback ports during a run.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServe is the only place a child is launched and the only place its
// flags are spelled: a checkpoint-booted server for the one benchmark
// platform on addr (a fresh loopback port from freeAddr), every other flag
// at its default, plus the cluster flags when ring is set. It returns once
// /v1/healthz answers. The child's output goes to logPath; the caller owns
// stop().
func startServe(ctx context.Context, bin, modelDir, logPath, addr string, ring *ringRole) (*serveProc, error) {
	url := "http://" + addr
	args := []string{"-model-dir", modelDir, "-platforms", servedMachine, "-addr", addr}
	if ring != nil {
		seed := ring.seed
		if seed == "" {
			seed = url
		}
		args = append(args, "-self", url, "-seed", seed, "-replication", "1")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed hard, the kernel takes the child
	// with it: no orphan keeps a port or a warm cache for the next run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	p := &serveProc{url: url, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: a failed child shows as failed operations
		close(p.exited)
	}()
	if err := p.waitReady(ctx); err != nil {
		p.stop()
		return nil, fmt.Errorf("serve on %s: %w (see %s)", addr, err, logPath)
	}
	return p, nil
}

// waitReady polls /v1/healthz until it answers 200, the child dies, or 30 s
// pass. The 2 ms poll keeps its own granularity out of setup_s.
func (p *serveProc) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get(p.url + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("child exited before becoming ready")
		case <-ctx.Done():
			return fmt.Errorf("not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop ends the child: SIGTERM, five seconds of grace for its own shutdown
// path, then SIGKILL. It returns only after the process has been reaped.
func (p *serveProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// procUsage is a child's accumulated CPU time and peak resident set, read
// from /proc while it runs so a run's boundaries — not the child's whole
// life, which includes boot and cache fill — delimit the cost.
type procUsage struct {
	cpu       time.Duration // user + system
	peakRSSMB float64
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat, 100 on
// every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

func (p *serveProc) usage() (procUsage, error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, so the 12th and 13th after ")".
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return procUsage{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("unparseable /proc/%s/stat", pid)
	}
	u := procUsage{cpu: time.Duration(utime+stime) * clockTick}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("unparseable VmHWM in /proc/%s/status", pid)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// selfUsage is procUsage for the benchmark's own process (offline_train
// runs in-process).
func selfUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procUsage{cpu: cpu, peakRSSMB: float64(ru.Maxrss) / 1024}
}
