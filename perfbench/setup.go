package main

import (
	"fmt"
	"runtime"
	"time"

	"otif"
	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/tuner"
	"otif/internal/video"
)

// params sizes every workload. defaultParams is what the command runs;
// the tests shrink it.
type params struct {
	Dataset     string
	Spec        dataset.SetSpec // train/val/test sets the program trains and tunes on
	DatasetSeed int64           // the CLI default, so every seed tunes the same program
	SetupReps   int             // set-ups per run; setup_s is their median
	Seconds     float64         // measured phase length

	// extract
	Batch         int // clips per RunSet call
	AccBatches    int // batches always run; accuracy is scored on exactly these
	ExtractChecks int // timed clips re-extracted at one worker
	ReplayClips   int // timed clips replayed layer by layer (traced run)

	// ingest
	Cameras      int
	ClipPeriod   time.Duration // per camera, between clip due times
	IngestRate   float64       // open-loop queries per second during ingest
	IngestChecks int           // published clips re-extracted by RunSet

	// query
	ReplicaClips int     // clips extracted into the replica's segments
	SegClips     int     // clips per exported segment
	OpenRate     float64 // open-loop requests per second
	LayerQueries int     // requests timed layer by layer (traced run)
}

func defaultParams() params {
	return params{
		Dataset:     "caldot1",
		Spec:        dataset.DefaultSpec,
		DatasetSeed: 7,
		SetupReps:   3,
		Seconds:     15,

		Batch:         24,
		AccBatches:    8,
		ExtractChecks: 4,
		ReplayClips:   8,

		Cameras:      2,
		ClipPeriod:   200 * time.Millisecond,
		IngestRate:   50,
		IngestChecks: 4,

		ReplicaClips: 200,
		SegClips:     8,
		OpenRate:     200,
		LayerQueries: 400,
	}
}

// system is the trained, tuned program every workload runs against.
type system struct {
	ds     *dataset.Instance
	sys    *core.System
	metric core.Metric
	cfg    core.Config // PickFastestWithin(curve, 0.05), the CLI default
}

// setupTimes splits one set-up into the phases the per-layer metrics name.
type setupTimes struct {
	Build, SelectBest, Finish, Tune time.Duration
	Cache                           video.CacheStats // frame cache counters over the set-up
}

func (s setupTimes) total() time.Duration { return s.Build + s.SelectBest + s.Finish + s.Tune }

// setupOnce builds, trains and tunes the program the way otif.Pipeline's
// Train and Tune do, starting from an empty frame cache of the default
// budget, as a fresh process would.
func setupOnce(p params) (*system, setupTimes, error) {
	var st setupTimes
	video.SetCacheBudget(video.DefaultCacheBytes)
	runtime.GC()

	t0 := time.Now()
	ds, err := dataset.Build(p.Dataset, p.Spec, p.DatasetSeed)
	if err != nil {
		return nil, st, err
	}
	sys := core.NewSystem(ds) // estimates the detector background
	metric := core.MetricFor(ds)
	t1 := time.Now()
	best, _ := tuner.SelectBest(sys, metric)
	t2 := time.Now()
	sys.FinishTraining(best, 42) // the seed otif.Pipeline.Train uses
	t3 := time.Now()
	curve := tuner.Tune(sys, metric, tuner.DefaultOptions())
	pt, err := otif.PickFastestWithin(curve, 0.05)
	if err != nil {
		return nil, st, fmt.Errorf("pick configuration: %w", err)
	}
	t4 := time.Now()

	st.Build, st.SelectBest, st.Finish, st.Tune = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	st.Cache = video.GlobalCacheStats()
	if pt.Cfg.VariableGap {
		return nil, st, fmt.Errorf("picked configuration %v uses the variable gap, which the replay does not cover", pt.Cfg)
	}
	return &system{ds: ds, sys: sys, metric: metric, cfg: pt.Cfg}, st, nil
}

// setup runs setupOnce p.SetupReps times and returns the last system with
// every repetition's phase times. Set-up is deterministic, so a
// repetition that picks another configuration is a failed check.
func setup(p params, r *report) (*system, []setupTimes, error) {
	var out *system
	var times []setupTimes
	for i := 0; i < p.SetupReps; i++ {
		s, st, err := setupOnce(p)
		if err != nil {
			return nil, nil, err
		}
		if out != nil && s.cfg != out.cfg {
			r.fail("set-up %d picked %v, set-up 1 picked %v", i+1, s.cfg, out.cfg)
		}
		out = s
		times = append(times, st)
	}
	runtime.GC()
	return out, times, nil
}
