package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"paragraph/internal/obs"
	"paragraph/internal/serve"
)

// The process-level checks: what only real binaries, real flags and real
// signals show. Everything an in-process test can reach is checked by one
// (the serve, shard, registry and cmd/train suites); this file keeps the
// rest — the separate pprof listener, -trace-slow reaching the process
// log, the shed contract of a flag-constrained process seen from
// cmd/overload (steady, then under SIGSTOP/SIGCONT), SIGTERM flushing
// -cache-file, and SIGTERM draining a ring member joined through -seed.

// child is one running binary under test.
type child struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{}
	err     error // cmd.Wait's result, read only after exited is closed
}

// freeAddr returns an unused loopback host:port; the listener is closed
// before the child binds it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startServe launches the serve binary on addr with args and returns once
// /v1/healthz answers. The child dies with the test process (Pdeathsig)
// and is stopped at cleanup if the test has not stopped it.
func startServe(t *testing.T, bin, addr string, args ...string) *child {
	t.Helper()
	c := &child{url: "http://" + addr, logPath: filepath.Join(t.TempDir(), "serve.log"), exited: make(chan struct{})}
	logf, err := os.Create(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	t.Cleanup(c.stop)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := http.Get(c.url + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c
			}
		}
		select {
		case <-c.exited:
			t.Fatalf("serve exited before becoming ready: %v\n%s", c.err, c.logText(t))
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve not ready after 30s:\n%s", c.logText(t))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop ends the child the way an operator does — SIGTERM, with ten seconds
// for its shutdown path before SIGKILL — and returns once it is reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

func (c *child) logText(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// getStatus GETs url and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runOverload runs cmd/overload against target; its exit status is the
// gate (0 = every response kept the shed contract and every opted-in
// assertion held).
func runOverload(t *testing.T, bin, target string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, append([]string{"-target", target}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("overload %v: %v\n%s", args, err, out)
	}
}

// checkRecovered asserts the server is healthy and idle after a flood:
// admission degrades service, never the process, and nothing stays queued.
func checkRecovered(t *testing.T, url string) serve.Stats {
	t.Helper()
	if code := getStatus(t, url+"/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the flood = %d", code)
	}
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admit.Queued != 0 || st.Admit.Running != 0 {
		t.Errorf("admission not idle after the flood: %d queued, %d running", st.Admit.Queued, st.Admit.Running)
	}
	return st
}

// underChaos runs fn while freezing p for 300ms of every second with
// SIGSTOP/SIGCONT, and returns once fn has and p is running again.
func underChaos(p *child, fn func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(700 * time.Millisecond):
			}
			_ = p.cmd.Process.Signal(syscall.SIGSTOP)
			time.Sleep(300 * time.Millisecond)
			_ = p.cmd.Process.Signal(syscall.SIGCONT)
		}
	}()
	defer func() { close(quit); <-done }()
	fn()
}

// TestProcess drives one serve process through its life: booted from a
// checkpoint the train binary wrote, observed, flooded, frozen mid-flood,
// and stopped with SIGTERM.
func TestProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/serve, cmd/train and cmd/overload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/serve", "./cmd/train", "./cmd/overload")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const machine = "NVIDIA V100 (GPU)"
	ckpt := t.TempDir()
	if out, err := exec.Command(filepath.Join(bin, "train"), "-scale", "tiny", "-epochs", "1", "-points", "24",
		"-platform", machine, "-save-dir", ckpt).CombinedOutput(); err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}

	pprofAddr := freeAddr(t)
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	srv := startServe(t, filepath.Join(bin, "serve"), freeAddr(t), "-model-dir", ckpt, "-platforms", machine,
		"-cache-file", cacheFile, "-trace-slow", "1ms", "-pprof-addr", pprofAddr,
		"-pool", "2", "-admit-queue", "4", "-admit-per-client", "2")

	// A traced advise over the default 48-point grid: several ms of
	// evaluation, so -trace-slow 1ms always logs it.
	const traceID = "process-trace-1"
	req, err := http.NewRequest(http.MethodPost, srv.url+"/v1/advise",
		strings.NewReader(`{"kernel":"matmul","machine":"`+machine+`","bindings":{"n":256}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced advise: %d", resp.StatusCode)
	}

	// pprof rides its own listener, never the serving port.
	if code := getStatus(t, "http://"+pprofAddr+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof listener: %d, want 200", code)
	}
	if code := getStatus(t, srv.url+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof on the serving port: %d, want 404", code)
	}

	// A steady flood: 16 bulk workers against two evaluation slots must
	// shed, while the interactive class on a warm key stays under its gate.
	overload := filepath.Join(bin, "overload")
	runOverload(t, overload, srv.url, "-duration", "3s", "-bulk", "16", "-interactive", "2",
		"-deadline", "2s", "-require-shed", "-max-interactive-p99", "1s")
	var shed uint64
	for _, n := range checkRecovered(t, srv.url).Shed {
		shed += n
	}
	if shed == 0 {
		t.Error("/v1/stats counts no shed after the flood")
	}

	// The same flood with the process frozen mid-flight: frozen intervals
	// stall requests rather than failing them, and the process recovers.
	underChaos(srv, func() {
		runOverload(t, overload, srv.url, "-duration", "3s", "-bulk", "16", "-interactive", "2", "-deadline", "5s")
	})
	checkRecovered(t, srv.url)

	// SIGTERM: a clean exit that flushed the cache file, and a log holding
	// the slow trace.
	srv.stop()
	if srv.err != nil {
		t.Errorf("serve exited with %v after SIGTERM", srv.err)
	}
	log := srv.logText(t)
	for _, want := range []string{`msg="slow request"`, "trace_id=" + traceID, `msg="cache snapshot flushed"`} {
		if !strings.Contains(log, want) {
			t.Errorf("serve log lacks %s", want)
		}
	}
	snap, err := os.ReadFile(cacheFile)
	if err != nil || !bytes.Contains(snap, []byte(`"advise":[{`)) {
		t.Errorf("cache file after SIGTERM holds no advise entry (%v)", err)
	}

	// A ring: B joins through A with -seed, warms a key it owns, and on
	// SIGTERM drains it to A before exiting, so A answers it warm.
	addrA, addrB := freeAddr(t), freeAddr(t)
	urlA, urlB := "http://"+addrA, "http://"+addrB
	ringArgs := []string{"-model-dir", ckpt, "-platforms", machine, "-replication", "1"}
	a := startServe(t, filepath.Join(bin, "serve"), addrA, append(ringArgs, "-self", urlA, "-seed", urlA)...)
	b := startServe(t, filepath.Join(bin, "serve"), addrB, append(ringArgs, "-self", urlB, "-seed", urlA)...)
	deadline := time.Now().Add(10 * time.Second)
	for ringSize(t, a.url) != 2 || ringSize(t, b.url) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("the -seed ring did not form")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var owned string
	for n := 64; owned == "" && n < 64+200; n++ {
		body := fmt.Sprintf(`{"kernel":"matmul","machine":%q,"bindings":{"n":%d}}`, machine, n)
		if advise(t, a.url, body).ServedBy == urlB {
			owned = body
		}
	}
	if owned == "" {
		t.Fatal("no key of 200 was B's")
	}
	b.stop()
	if b.err != nil {
		t.Errorf("ring member exited with %v after SIGTERM", b.err)
	}
	if log := b.logText(t); !strings.Contains(log, `msg="cluster drain complete"`) || !strings.Contains(log, "streamed=1 ") {
		t.Errorf("SIGTERM did not drain B's one key:\n%s", log)
	}
	if resp := advise(t, a.url, owned); !resp.Cached || resp.ServedBy != urlA {
		t.Errorf("B's key after the drain: cached=%v served_by=%q, want a hit on A", resp.Cached, resp.ServedBy)
	}
}

// ringSize reads the member count of url's /v1/ring.
func ringSize(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring serve.RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	return len(ring.Members)
}

// advise POSTs an advise body to url and decodes the 200 answer.
func advise(t *testing.T, url, body string) serve.AdviseResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/advise", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.AdviseResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
		t.Fatalf("advise %s: %d", body, resp.StatusCode)
	}
	return out
}
