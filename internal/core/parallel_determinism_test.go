package core

import (
	"reflect"
	"testing"

	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/parallel"
)

// TestRunSetDeterministicAcrossWorkerCounts asserts the parallel execution
// contract (DESIGN.md "Parallel execution"): RunSet produces bit-for-bit
// identical simulated runtimes, cost breakdowns, and query tracks at any
// worker count, because each clip charges its own shard accountant and the
// shards merge in clip order.
func TestRunSetDeterministicAcrossWorkerCounts(t *testing.T) {
	sys := smallSystem(t)
	cfgs := []Config{sys.Best}
	proxied := sys.Best
	proxied.UseProxy = true
	proxied.ProxyIdx = 0
	proxied.ProxyThresh = 0.3
	proxied.Gap = 2
	cfgs = append(cfgs, proxied)

	defer parallel.SetWorkers(0)
	for _, cfg := range cfgs {
		parallel.SetWorkers(1)
		serial := sys.RunSet(cfg, sys.DS.Val)
		for _, workers := range []int{2, 4, 7} {
			parallel.SetWorkers(workers)
			par := sys.RunSet(cfg, sys.DS.Val)
			if par.Runtime != serial.Runtime {
				t.Errorf("workers=%d cfg=%v: runtime %v != serial %v",
					workers, cfg, par.Runtime, serial.Runtime)
			}
			if !reflect.DeepEqual(par.Breakdown, serial.Breakdown) {
				t.Errorf("workers=%d cfg=%v: breakdown %v != serial %v",
					workers, cfg, par.Breakdown, serial.Breakdown)
			}
			if !reflect.DeepEqual(par.PerClip, serial.PerClip) {
				t.Errorf("workers=%d cfg=%v: per-clip tracks differ from serial", workers, cfg)
			}
		}
	}
}

// TestFinishTrainingDeterministicAcrossWorkerCounts pins that training
// runs its S* clips on the worker pool without changing anything it
// produces: S* tracks, the charged training costs, the window sizes and
// the trained tracker weights are bit-identical to a serial run.
func TestFinishTrainingDeterministicAcrossWorkerCounts(t *testing.T) {
	ds, err := dataset.Build("caldot1", dataset.SetSpec{Clips: 3, ClipSeconds: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	best := Config{Arch: detect.ArchYOLO, DetScale: 1.0, DetConf: DetConfDefault, Gap: 1, Tracker: TrackerSORT}
	train := func(workers int) *System {
		parallel.SetWorkers(workers)
		sys := NewSystem(ds)
		sys.FinishTraining(best, 42)
		return sys
	}
	defer parallel.SetWorkers(0)
	serial := train(1)
	par := train(3)
	if !reflect.DeepEqual(par.SStar, serial.SStar) {
		t.Error("S* tracks differ from the serial run")
	}
	if !reflect.DeepEqual(par.Acct.Breakdown(), serial.Acct.Breakdown()) {
		t.Errorf("training costs %v != serial %v", par.Acct.Breakdown(), serial.Acct.Breakdown())
	}
	if !reflect.DeepEqual(par.WindowSizes, serial.WindowSizes) {
		t.Errorf("window sizes %v != serial %v", par.WindowSizes, serial.WindowSizes)
	}
	if !reflect.DeepEqual(par.Recurrent, serial.Recurrent) || !reflect.DeepEqual(par.Pair, serial.Pair) {
		t.Error("trained tracker models differ from the serial run")
	}
}
