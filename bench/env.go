package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

// plan is the time budget of one run, derived from -seconds (or -quick).
type plan struct {
	warmup time.Duration // discarded closed-loop time before the first round
	rounds int
	round  time.Duration
	// Set-up is timed minSetups times at least, then repeated until
	// setupFill of set-up time has been measured or maxSetups set-ups have
	// run; setup_s is the median. A set-up that takes milliseconds (booting
	// one child) gets fifteen samples, one that takes seconds (filling a
	// cache) two — it is already the sum of hundreds of requests.
	minSetups int
	setupFill time.Duration

	warmSizes int // sizes per kernel in the warm key set (× 17 kernels)

	trainWarmEpochs int // offline_train: one discarded round of this many epochs
	trainRounds     int
	trainEpochs     int // epochs per measured round; one epoch is one operation

	replay int // seeded cold requests the layer replay walks
}

// maxSetups caps the repetition of cheap set-ups.
const maxSetups = 15

// moreSetups reports whether a run that has timed done set-ups, taking spent
// in total, should time another.
func (p plan) moreSetups(done int, spent time.Duration) bool {
	return done < p.minSetups || (spent < p.setupFill && done < maxSetups)
}

// newPlan splits seconds into one-second rounds behind a two-second
// warm-up: many short rounds, so that the half of them a noisy neighbour
// disturbed can be told from the half it did not (see steadyHalf).
// offline_train measures fixed work instead of fixed time — five rounds of
// `seconds` epochs, ~0.2 s each on the two-core reference box — so every
// round does identical work and the run still lasts about `seconds`. quick
// is the smoke-test size.
func newPlan(seconds int, quick bool) plan {
	if quick {
		return plan{
			warmup: time.Second, rounds: 2, round: time.Second, minSetups: 1, warmSizes: 2,
			trainWarmEpochs: 1, trainRounds: 2, trainEpochs: 3, replay: 4,
		}
	}
	return plan{
		warmup: 2 * time.Second, rounds: seconds, round: time.Second,
		minSetups: 2, setupFill: 6 * time.Second, warmSizes: sizesPerKernel,
		trainWarmEpochs: 3, trainRounds: 5, trainEpochs: seconds, replay: 64,
	}
}

// env is what every workload of one benchmark process shares: where things
// live, the built child binary, and the one serving checkpoint — written
// once, loaded by every child and opened in-process for the oracle and the
// layer replay.
type env struct {
	outDir   string // bench/out: traces and child logs, kept after the run
	tmpDir   string // bench/out/run-*: removed by close
	serveBin string
	modelDir string
	model    *gnn.Model // the checkpoint's weights, for registry.Save timing
	entry    *registry.Entry
	clients  int // closed-loop clients of this run's workload
	logSeq   int
}

// servingModelConfig is the served model: untrained on purpose, so a change
// to training code cannot change the serving work.
func servingModelConfig() gnn.Config {
	return gnn.Config{Seed: 1, Hidden: 24, Layers: 3, Relations: int(paragraph.NumEdgeTypes)}
}

// servingPrep carries plausible training scalers without a training run
// (the same constants bench_test.go's benchServePrep uses).
func servingPrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

// saveCheckpoint writes the serving checkpoint under dir.
func saveCheckpoint(dir string, model *gnn.Model) error {
	_, err := registry.Save(dir, hw.V100(), "default", paragraph.LevelParaGraph, model, servingPrep(), registry.TrainInfo{})
	return err
}

// newEnv builds cmd/serve, writes the checkpoint and opens it. None of it
// is timed. clients is the workload's closed-loop client count; 0 means the
// workload starts no child (offline_train) and cmd/serve is not built.
func newEnv(clients int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{outDir: filepath.Join(root, "bench", "out"), clients: clients}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "run-*"); err != nil {
		return nil, err
	}
	if clients > 0 {
		buildDir := filepath.Join(root, ".bench_build")
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			e.close()
			return nil, err
		}
		if e.serveBin, err = buildServe(root, buildDir); err != nil {
			e.close()
			return nil, err
		}
	}
	e.modelDir = filepath.Join(e.tmpDir, "registry")
	e.model = gnn.NewModel(servingModelConfig())
	if err := saveCheckpoint(e.modelDir, e.model); err != nil {
		e.close()
		return nil, err
	}
	reg, err := registry.Open(e.modelDir, registry.Options{})
	if err != nil {
		e.close()
		return nil, err
	}
	if e.entry, err = reg.Lookup(servedMachine, ""); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close removes the run's temp directory (checkpoint included). Child logs
// and traces in outDir stay.
func (e *env) close() { os.RemoveAll(e.tmpDir) }

// nextLog names the log file of the next child of this process.
func (e *env) nextLog(workload string) string {
	e.logSeq++
	return filepath.Join(e.outDir, fmt.Sprintf("serve-%s-%d.log", workload, e.logSeq))
}
