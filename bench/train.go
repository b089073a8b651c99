package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

const (
	trainSubset = 64
	valSubset   = 16

	// valRMSECeiling fails offline_train when a round's final validation
	// RMSE (scaled target space) exceeds 1.25 × 0.20. The subset is
	// seed-chosen, so the recorded value is the worst over seeds, not one
	// run's: 0.12 after fifteen epochs and 0.205 after the -quick size's
	// three, over seeds 1–12; an untrained model scores about 0.29.
	// (BENCHMARK.json's keys are fixed by the driver, so the value is
	// recorded here.)
	valRMSECeiling = 1.25 * 0.20
)

// trainModelConfig is the model offline_train fits: the serving model's
// shape, so the two uses of gnn/tensor/nn are comparable.
func trainModelConfig() gnn.Config { return servingModelConfig() }

// trainData is offline_train's set-up product.
type trainData struct {
	points     int // data points collected (the full default CPU sweep)
	collect    time.Duration
	prepare    time.Duration
	train, val []*gnn.Sample
}

// setupTrain does what cmd/datagen and cmd/train do before fitting: collect
// the full default sweep on the POWER9 profile (so the CPU variant kinds are
// exercised), prepare it at the ParaGraph level, and pick the seed's
// 64-train/16-val subset.
func setupTrain(seed int64) (*trainData, error) {
	t0 := time.Now()
	plat, err := dataset.Collect(hw.Power9(), dataset.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	prep, err := dataset.Prepare(plat.Points, dataset.PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if len(prep.Train) < trainSubset || len(prep.Val) < valSubset {
		return nil, fmt.Errorf("offline_train: %d train / %d val samples, need %d / %d", len(prep.Train), len(prep.Val), trainSubset, valSubset)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(from []*gnn.Sample, n int) []*gnn.Sample {
		out := make([]*gnn.Sample, n)
		for i, idx := range rng.Perm(len(from))[:n] {
			out[i] = from[idx]
		}
		return out
	}
	return &trainData{
		points: len(plat.Points), collect: t1.Sub(t0), prepare: t2.Sub(t1),
		train: pick(prep.Train, trainSubset), val: pick(prep.Val, valSubset),
	}, nil
}

// trainRound fits a fresh model for epochs epochs and returns each epoch's
// wall time in ms (timed from the Progress callback) plus the final
// validation RMSE. Every round starts from the same seed, so rounds do
// identical work. onEpoch, when non-nil, sees each epoch's interval.
func trainRound(d *trainData, epochs int, onEpoch func(epoch int, start, end time.Time)) (epochMS []float64, valRMSE float64, err error) {
	m := gnn.NewModel(trainModelConfig())
	last := time.Now()
	var bad error
	hist, err := m.Train(d.train, d.val, gnn.TrainConfig{
		Epochs: epochs, BatchSize: 16, Seed: 1,
		Progress: func(epoch int, trainLoss, valRMSE float64) {
			now := time.Now()
			epochMS = append(epochMS, float64(now.Sub(last))/float64(time.Millisecond))
			if onEpoch != nil {
				onEpoch(epoch, last, now)
			}
			last = now
			if bad == nil && (math.IsNaN(trainLoss) || math.IsInf(trainLoss, 0) || math.IsNaN(valRMSE) || math.IsInf(valRMSE, 0)) {
				bad = fmt.Errorf("epoch %d: train loss %v, val RMSE %v", epoch, trainLoss, valRMSE)
			}
		},
	})
	if err != nil {
		return nil, 0, err
	}
	if bad != nil {
		return nil, 0, bad
	}
	return epochMS, hist.FinalValRMSE(), nil
}

// trainResult is one timed offline_train run.
type trainResult struct {
	setupS    []float64
	rates     []float64 // epochs per second, one per round
	epochMS   []float64 // pooled over rounds, ascending
	valRMSE   float64   // final validation RMSE of the last round
	attempted int
	failed    int
	firstErr  error
}

// runTrain is the timed run of offline_train. traced, when non-nil, is told
// whether a round records epoch spans (the traced run alternates rounds).
func runTrain(seed int64, p plan, tr *tracer, traced func(r int) bool) (trainResult, error) {
	var res trainResult
	var d *trainData
	var spent time.Duration
	for p.moreSetups(len(res.setupS), spent) {
		t0 := time.Now()
		var err error
		if d, err = setupTrain(seed); err != nil {
			return res, err
		}
		spent += time.Since(t0)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	if _, _, err := trainRound(d, p.trainWarmEpochs, nil); err != nil {
		return res, err
	}
	for r := 0; r < p.trainRounds; r++ {
		var onEpoch func(int, time.Time, time.Time)
		round, rid := 0, fmt.Sprintf("round-%d", r)
		if traced != nil && traced(r) {
			round = tr.newID()
			onEpoch = func(epoch int, from, to time.Time) {
				tr.add(span{Parent: round, Request: rid, Name: "gnn.train.epoch", Start: from, End: to})
			}
		}
		t0 := time.Now()
		epochMS, rmse, err := trainRound(d, p.trainEpochs, onEpoch)
		wall := time.Since(t0)
		if round != 0 {
			tr.add(span{ID: round, Request: rid, Name: "train.round", Start: t0, End: t0.Add(wall)})
		}
		res.attempted += p.trainEpochs
		if err == nil && rmse > valRMSECeiling {
			err = fmt.Errorf("round %d: final val RMSE %.4f above the ceiling %.4f", r, rmse, valRMSECeiling)
		}
		if err != nil {
			res.failed += p.trainEpochs
			res.firstErr = err
			break // rates stay indexed by round; the run fails anyway
		}
		res.rates = append(res.rates, float64(len(epochMS))/wall.Seconds())
		res.epochMS = append(res.epochMS, epochMS...)
		res.valRMSE = rmse
	}
	sort.Float64s(res.epochMS)
	return res, nil
}
