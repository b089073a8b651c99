package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"paragraph/internal/experiments"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

// startService boots micro checkpoints for a CPU and a GPU profile and
// serves them on a real loopback listener, as main's run path does.
func startService(t *testing.T) string {
	t.Helper()
	srv, _, err := buildServer([]string{
		"-model-dir", trainCheckpoints(t, hw.Power9(), hw.V100()),
		"-platforms", "IBM POWER9 (CPU),NVIDIA V100 (GPU)",
		"-addr", "127.0.0.1:0",
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

func post(t *testing.T, url string, body any, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestServeEndToEnd is the acceptance check: the booted service answers
// /v1/advise for a CPU and a GPU profile over real HTTP, and a repeated
// identical request is a cache hit visible in /v1/stats.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the checkpoint fixture in -short mode")
	}
	base := startService(t)

	for _, machine := range []string{"IBM POWER9 (CPU)", "NVIDIA V100 (GPU)"} {
		req := serve.AdviseRequest{
			Kernel:   "matmul",
			Machine:  machine,
			Bindings: map[string]float64{"n": 256},
			Space: &serve.SpaceSpec{
				CPUThreads: []int{2, 8},
				GPUTeams:   []int{64, 128},
				GPUThreads: []int{128},
			},
		}
		var cold serve.AdviseResponse
		post(t, base+"/v1/advise", req, &cold)
		if cold.Cached || len(cold.Recommendations) == 0 {
			t.Fatalf("%s: cold response = %+v", machine, cold)
		}
		for _, r := range cold.Recommendations {
			if r.PredictedUS <= 0 {
				t.Errorf("%s: non-positive prediction %+v", machine, r)
			}
		}
		var warm serve.AdviseResponse
		post(t, base+"/v1/advise", req, &warm)
		if !warm.Cached {
			t.Errorf("%s: repeat request not cached", machine)
		}
		for i := range cold.Recommendations {
			if warm.Recommendations[i] != cold.Recommendations[i] {
				t.Errorf("%s: cached ranking differs at %d", machine, i)
			}
		}
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.AdviseCacheHits < 2 {
		t.Errorf("advise cache hits = %d, want >= 2", st.AdviseCacheHits)
	}
	if st.Requests.Advise != 4 {
		t.Errorf("advise requests = %d, want 4", st.Requests.Advise)
	}
	if len(st.Machines) != 2 {
		t.Errorf("machines = %v", st.Machines)
	}

	hresp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q", h.Status)
	}
}

// trainCheckpoints trains a micro model per machine (the V100 when none is
// named), writes each as two checkpoints, "default" and "exp", and returns
// the registry root.
func trainCheckpoints(t *testing.T, machines ...hw.Machine) string {
	t.Helper()
	if len(machines) == 0 {
		machines = []hw.Machine{hw.V100()}
	}
	dir := t.TempDir()
	runner := experiments.NewRunner(microScale(1))
	for _, m := range machines {
		tr, err := runner.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"default", "exp"} {
			if _, err := registry.Save(dir, m, name, paragraph.LevelParaGraph,
				tr.Model, tr.Prep, registry.TrainInfo{Scale: "tiny", Epochs: 1,
					TrainSamples: len(tr.Prep.Train), ValSamples: len(tr.Prep.Val),
					FinalValRMSE: tr.Hist.FinalValRMSE()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

func microScale(epochs int) experiments.Scale {
	s := experiments.Tiny()
	s.Epochs = epochs
	s.MaxPerPlatform = 24
	return s
}

// TestModelDirServesCheckpointsWithoutTraining is the train-free startup
// acceptance check: boot from -model-dir, list two named versions, advise
// through a non-default one.
func TestModelDirServesCheckpointsWithoutTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the checkpoint fixture in -short mode")
	}
	dir := trainCheckpoints(t)
	var out strings.Builder
	srv, _, err := buildServer([]string{"-model-dir", dir}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if strings.Contains(out.String(), "training") {
		t.Errorf("-model-dir startup trained anyway:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `msg="loaded checkpoint"`) ||
		!strings.Contains(out.String(), `model="NVIDIA V100 (GPU)/default"`) ||
		!strings.Contains(out.String(), `model="NVIDIA V100 (GPU)/exp"`) {
		t.Errorf("startup log missing checkpoints:\n%s", out.String())
	}

	models := srv.Models()
	if len(models.Models) != 2 {
		t.Fatalf("serving %d models, want 2", len(models.Models))
	}
	for _, m := range models.Models {
		if m.Source != "checkpoint" {
			t.Errorf("model %s source = %q, want checkpoint", m.Name, m.Source)
		}
		if m.Default != (m.Name == "default") {
			t.Errorf("model %s default flag = %v", m.Name, m.Default)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	base := "http://" + ln.Addr().String()

	req := serve.AdviseRequest{
		Kernel:   "matmul",
		Machine:  "NVIDIA V100 (GPU)",
		Model:    "exp",
		Bindings: map[string]float64{"n": 256},
		Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
	}
	var resp serve.AdviseResponse
	post(t, base+"/v1/advise", req, &resp)
	if resp.Model != "exp" || len(resp.Recommendations) == 0 {
		t.Errorf("checkpoint advise = %+v", resp)
	}
	for _, r := range resp.Recommendations {
		if r.PredictedUS <= 0 {
			t.Errorf("non-positive prediction %+v", r)
		}
	}
}

// TestBootIgnoresRolloutState is the upgrade path from a registry that an
// older serve ran its in-process rollout over: testdata/rollout.json, as
// that serve wrote it after rolling its fb-* candidate back, names v1 the
// stable. A boot now serves the registry's default alias — the newest
// version, the rolled-back candidate — and leaves the file as it was. (So
// OPERATIONS.md has operators remove a rolled-back fb-* directory before
// upgrading.) A feedback log an older serve appended to, left inside the
// model directory, is not read or touched either: the boot and an advise
// leave its bytes, its modification time and its directory as they were.
func TestBootIgnoresRolloutState(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the checkpoint fixture in -short mode")
	}
	root := t.TempDir()
	tr, err := experiments.NewRunner(microScale(1)).Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v1", "fb-20261017-080000"} { // oldest first
		if _, err := registry.Save(root, hw.V100(), name, paragraph.LevelParaGraph,
			tr.Model, tr.Prep, registry.TrainInfo{Epochs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	state, err := os.ReadFile(filepath.Join("testdata", "rollout.json"))
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(root, hw.Slug(hw.V100().Name), "rollout.json")
	if err := os.WriteFile(statePath, state, 0o644); err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(root, "feedback")
	logPath := filepath.Join(logDir, hw.Slug(hw.V100().Name)+".jsonl")
	logBytes := []byte(`{"v":1,"key":"` + strings.Repeat("ab", 32) + `","platform":"NVIDIA V100 (GPU)","measured_us":120}` + "\n")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	logInfo, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	srv, _, err := buildServer([]string{"-model-dir", root, "-platforms", hw.V100().Name}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reg, err := registry.Open(root, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := reg.Lookup(hw.V100().Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if want.Manifest.Name != "fb-20261017-080000" {
		t.Fatalf("the registry's default is %q, want the newest version", want.Manifest.Name)
	}
	for _, m := range srv.Models().Models {
		if m.Default != (m.Name == want.Manifest.Name) {
			t.Errorf("model %s default = %v, want only %s", m.Name, m.Default, want.Manifest.Name)
		}
	}
	var resp serve.AdviseResponse
	doLocal(t, srv, serve.AdviseRequest{Kernel: "matmul", Machine: hw.V100().Name,
		Bindings: map[string]float64{"n": 256}}, &resp)
	if resp.Model != want.Manifest.Name {
		t.Errorf("unpinned advise served by %q, want %q", resp.Model, want.Manifest.Name)
	}
	if after, err := os.ReadFile(statePath); err != nil || !bytes.Equal(after, state) {
		t.Errorf("rollout.json changed or went (err %v)", err)
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, logBytes) {
		t.Errorf("the feedback log changed or went (err %v)", err)
	}
	if after, err := os.Stat(logPath); err != nil || !after.ModTime().Equal(logInfo.ModTime()) {
		t.Errorf("the feedback log was written to (err %v)", err)
	}
	if entries, err := os.ReadDir(logDir); err != nil || len(entries) != 1 {
		t.Errorf("the feedback directory holds %d entries (err %v), want the one log", len(entries), err)
	}
}

// TestCacheFileSurvivesRestart is the warm-restart acceptance check: a
// request cached by one server instance, snapshotted to -cache-file, is a
// cache hit on a freshly built instance after restore — the kill/restart
// path cmd/serve runs through run().
func TestCacheFileSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the checkpoint fixture in -short mode")
	}
	dir := trainCheckpoints(t)
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	args := []string{"-model-dir", dir, "-cache-file", cacheFile}

	req := serve.AdviseRequest{
		Kernel:   "matmul",
		Machine:  "NVIDIA V100 (GPU)",
		Bindings: map[string]float64{"n": 256},
		Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
	}

	// First process lifetime: cold advise, then flush the snapshot (what
	// run() does on SIGTERM after draining).
	srv1, cfg, err := buildServer(args, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var cold serve.AdviseResponse
	doLocal(t, srv1, req, &cold)
	if cold.Cached {
		t.Fatal("first-ever request claims cached")
	}
	srv1.Close()
	if err := srv1.SaveCacheFile(cfg.cacheFile); err != nil {
		t.Fatal(err)
	}

	// Second process lifetime: restore, and the same request must hit.
	srv2, cfg2, err := buildServer(args, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	n, err := srv2.LoadCacheFile(cfg2.cacheFile)
	if err != nil || n == 0 {
		t.Fatalf("LoadCacheFile = %d, %v", n, err)
	}
	var warm serve.AdviseResponse
	doLocal(t, srv2, req, &warm)
	if !warm.Cached {
		t.Error("restarted server missed the restored cache entry")
	}
	if len(warm.Recommendations) != len(cold.Recommendations) {
		t.Fatal("restored ranking differs in length")
	}
	for i := range cold.Recommendations {
		if warm.Recommendations[i] != cold.Recommendations[i] {
			t.Errorf("restored rec %d differs", i)
		}
	}
}

// doLocal posts an advise request straight at the handler.
func doLocal(t *testing.T, srv *serve.Server, req serve.AdviseRequest, out *serve.AdviseResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/advise", &buf)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, hreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

func TestBuildServerFlagErrors(t *testing.T) {
	cases := [][]string{
		// The training boot's flags and the registry's LRU bound are gone:
		// each is an unknown flag now, not a silent no-op.
		{"-scale", "huge"},
		{"-epochs", "1"},
		{"-points", "24"},
		{"-model-max-loaded", "4"},
		// So are the retired in-process retrain loop's policy flags.
		{"-rollout-split", "50"},
		{"-retrain-after", "6"},
		{"-retrain-epochs", "1"},
		{"-quality-min", "5"},
		{"-promote-after", "3"},
		{"-gc-keep", "-1"},
		// And the feedback log it recorded into: POST /v1/feedback is gone,
		// so a pre-upgrade command line naming a log is refused.
		{"-feedback-dir", "pg-feedback"},
		// The heartbeat is a constant: no deployment ever set it.
		{"-heartbeat", "1s"},
		{"-platforms", "Cray-1"},
		{"-platforms", ""},
		{"-badflag"},
		{"-model-dir", "/nonexistent/registry", "-typo"},
		{"-model-dir", "/nonexistent/registry"},
		// -peers is gone: -seed is the one bootstrap, so a pre-upgrade
		// command line with -peers is a usage error, whatever else it says.
		{"-peers", "http://127.0.0.1:1"},
		{"-self", "not-a-url", "-peers", "http://127.0.0.1:1"},
		{"-self", "http://127.0.0.1:1", "-peers", "ftp://127.0.0.1:2"},
		{"-self", "http://127.0.0.1:1", "-peers", "http://127.0.0.1:2/suffix"},
		{"-self", "http://127.0.0.1:1", "-peers", "http://127.0.0.1:2", "-replication", "0"},
		// Cluster flags fail before any checkpoint is loaded.
		{"-seed", "http://127.0.0.1:1"},
		{"-self", "http://127.0.0.1:1"},
		{"-self", "not-a-url", "-seed", "http://127.0.0.1:1"},
		{"-self", "http://127.0.0.1:1", "-seed", "ftp://127.0.0.1:2"},
		{"-self", "http://127.0.0.1:1", "-seed", "http://127.0.0.1:2/suffix"},
		{"-self", "http://127.0.0.1:1", "-seed", "http://127.0.0.1:2", "-replication", "0"},
		{"-self", "http://127.0.0.1:1", "-seed", "http://127.0.0.1:2", "-replication", "-3"},
		// Observability flags are validated before that too.
		{"-log-level", "loud"},
	}
	// None of the cases names a registry that exists, so each must be
	// refused for its own reason before the boot asks for one.
	const needsRegistry = "-model-dir is required"
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout strings.Builder
			if _, _, err := buildServer(args, &stdout, io.Discard); err == nil {
				t.Errorf("buildServer(%v) accepted", args)
			} else if strings.Contains(err.Error(), needsRegistry) {
				t.Errorf("buildServer(%v) got as far as the boot: %v", args, err)
			}
			// Flag errors and usage go to stderr; stdout carries the log.
			if stdout.Len() != 0 {
				t.Errorf("buildServer(%v) wrote to stdout:\n%s", args, stdout.String())
			}
		})
	}
	// There is one boot mode, and it needs its registry.
	if _, _, err := buildServer([]string{"-platforms", "NVIDIA V100 (GPU)"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), needsRegistry) {
		t.Errorf("buildServer without -model-dir = %v, want %q", err, needsRegistry)
	}
}

// TestClusterFlagsFormWorkingTier is the cmd-level acceptance check for
// -self/-seed: two buildServer instances booted from the same checkpoints,
// the second seeded by the first, form one ring, forward over it, answer
// with identical rankings regardless of the receiving peer, and losing a
// peer degrades to local serving without failures.
//
// Two checks need a key the second peer owns, and where a key lands is up
// to its hash. Each asks its fixed keys (8, then 16) and then fresh ones
// until it has seen such a key, up to keysToSee of the second peer's ring
// share: a bound a run exhausts by chance less than once in 2⁴⁰.
func TestClusterFlagsFormWorkingTier(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the checkpoint fixture in -short mode")
	}
	dir := trainCheckpoints(t)

	// Listeners first: -self must carry each process's real address.
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*serve.Server, 2)
	hss := make([]*http.Server, 2)
	for i := range srvs {
		srv, _, err := buildServer([]string{
			"-model-dir", dir, "-self", urls[i], "-seed", urls[0], "-replication", "2",
		}, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs[i] = srv
		hss[i] = &http.Server{Handler: srv.Handler()}
		hs := hss[i]
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
	}

	// The second peer's start-up gossip exchange admits it.
	deadline := time.Now().Add(10 * time.Second)
	for len(srvs[0].Ring().Members) != 2 || len(srvs[1].Ring().Members) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ring did not form: %+v / %+v", srvs[0].Ring().Members, srvs[1].Ring().Members)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every key is owned by one of the two peers: the second peer's share
	// of the ring is its chance of owning a fresh key.
	var shareB float64
	for _, m := range srvs[0].Ring().Members {
		if m.Peer == urls[1] {
			shareB = m.Ownership
		}
	}
	bound := keysToSee(shareB)

	forwarded := false
	for i := 0; i < 8 || (!forwarded && i < bound); i++ {
		req := serve.AdviseRequest{
			Kernel:   "matmul",
			Machine:  "NVIDIA V100 (GPU)",
			Bindings: map[string]float64{"n": float64(128 + 32*i)},
			Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
		}
		var viaA, viaB serve.AdviseResponse
		post(t, urls[0]+"/v1/advise", req, &viaA)
		post(t, urls[1]+"/v1/advise", req, &viaB)
		aj, _ := json.Marshal(viaA.Recommendations)
		bj, _ := json.Marshal(viaB.Recommendations)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("n=%v: rankings differ by receiving peer:\n%s\n%s", req.Bindings["n"], aj, bj)
		}
		if viaA.ServedBy != urls[0] {
			forwarded = true
		}
	}
	if !forwarded {
		t.Errorf("no request was forwarded between the two peers in %d keys (second peer's share %.3f)", bound, shareB)
	}
	ring := srvs[0].Ring()
	if !ring.Enabled || len(ring.Members) != 2 {
		t.Fatalf("ring = %+v", ring)
	}
	if ring.Replication == nil || ring.Replication.Factor != 2 {
		t.Fatalf("-replication 2 not reflected in the ring view: %+v", ring.Replication)
	}

	// Degraded mode: kill peer B outright (listener and every open
	// connection); peer A keeps answering B-owned keys itself. With rf=2
	// on two peers A is every key's primary or sole surviving replica, so
	// fresh B-primary keys count local fallbacks. The bindings are never
	// a multiple of 32, so no key repeats one from above.
	hss[1].Close()
	for i := 0; i < 16 || (srvs[0].Ring().LocalFallbacks == 0 && i < bound); i++ {
		var resp serve.AdviseResponse
		post(t, urls[0]+"/v1/advise", serve.AdviseRequest{
			Kernel:   "matmul",
			Machine:  "NVIDIA V100 (GPU)",
			Bindings: map[string]float64{"n": float64(4096 + 32*i + 16)},
			Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
		}, &resp)
		if resp.ServedBy != urls[0] {
			t.Fatalf("request after peer loss served by %q, want the surviving peer %q", resp.ServedBy, urls[0])
		}
	}
	if srvs[0].Ring().LocalFallbacks == 0 {
		t.Errorf("%d fresh keys after peer loss and no local fallback recorded", bound)
	}
}

// keysToSee returns how many independent fresh keys it takes before missing
// every key of a share p of the ring is less likely than 2⁻⁴⁰.
func keysToSee(p float64) int {
	if p <= 0 || p >= 1 {
		return 1
	}
	return int(math.Ceil(40/-math.Log2(1-p))) + 1
}

func TestBuildServerDefaultsAllPlatforms(t *testing.T) {
	names := allPlatformNames()
	if got := len(strings.Split(names, ",")); got != 4 {
		t.Errorf("default platforms = %q (%d entries)", names, got)
	}
	for _, frag := range []string{"POWER9", "V100", "EPYC", "MI50"} {
		if !strings.Contains(names, frag) {
			t.Errorf("default platforms missing %s", frag)
		}
	}
}

// TestFlagsDocumented holds the two places an operator reads flags from —
// docs/OPERATIONS.md's flag table and this command's header usage block —
// to the flags buildServer defines: each defined flag appears in both, and
// neither documents one that does not exist.
func TestFlagsDocumented(t *testing.T) {
	// A flag as all three sources write it: "-name" after a space, an
	// opening bracket or a backtick.
	flagRE := regexp.MustCompile("(?:^|[\\s\\[`])(-[a-z][a-z-]*[a-z])")
	flagsIn := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, m := range flagRE.FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}

	// -h makes the flag set print its defaults — one "  -name type" line
	// per defined flag, its help text on the next — and stop before
	// anything is built.
	var help bytes.Buffer
	if _, _, err := buildServer([]string{"-h"}, io.Discard, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("buildServer(-h) = %v, want flag.ErrHelp", err)
	}
	var names []string
	for _, line := range strings.Split(help.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	defined := flagsIn(strings.Join(names, " "))
	if len(defined) != 13 {
		t.Fatalf("parsed %d flags from the usage output, want the 13 serve defines:\n%s", len(defined), help.String())
	}

	// The table: the first cell of each row under the "## Flags" heading.
	ops, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(ops), "\n## Flags\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var cells []string
	for _, line := range strings.Split(section, "\n") {
		if row := strings.Split(line, "|"); len(row) > 2 {
			cells = append(cells, row[1])
		}
	}

	// The header: the block between "// Usage:" and "// Endpoints:".
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, usage, _ := strings.Cut(string(src), "// Usage:\n")
	usage, _, _ = strings.Cut(usage, "// Endpoints:")

	for where, documented := range map[string]map[string]bool{
		"docs/OPERATIONS.md's flag table": flagsIn(strings.Join(cells, " ")),
		"main.go's usage block":           flagsIn(usage),
	} {
		for name := range defined {
			if !documented[name] {
				t.Errorf("%s does not list %s", where, name)
			}
		}
		for name := range documented {
			if !defined[name] {
				t.Errorf("%s lists %s, which buildServer does not define", where, name)
			}
		}
	}
}
