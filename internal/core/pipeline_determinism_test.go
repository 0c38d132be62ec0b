package core

import (
	"reflect"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/track"
	"otif/internal/video"
)

// TestRunSetDeterministicAcrossPrefetchDepths asserts the decode-ahead
// contract (DESIGN.md "Batched inference, pooled allocation and
// decode-ahead"): RunSet produces bit-for-bit identical runtimes, cost
// breakdowns and query tracks whether frames are decoded synchronously
// (depth 0) or by a producer goroutine running ahead of the pipeline.
func TestRunSetDeterministicAcrossPrefetchDepths(t *testing.T) {
	defer video.SetPrefetchDepth(video.DefaultPrefetchDepth)

	sys := smallSystem(t)
	recCfg := sys.Best
	recCfg.Tracker = TrackerRecurrent
	recCfg.Gap = 2

	for _, cfg := range []Config{sys.Best, recCfg} {
		video.SetPrefetchDepth(0)
		syncRes := sys.RunSet(cfg, sys.DS.Val)
		for _, depth := range []int{1, 2, 4} {
			video.SetPrefetchDepth(depth)
			pre := sys.RunSet(cfg, sys.DS.Val)
			if pre.Runtime != syncRes.Runtime {
				t.Errorf("depth=%d cfg=%v: runtime %v != sync %v", depth, cfg, pre.Runtime, syncRes.Runtime)
			}
			if !reflect.DeepEqual(pre.Breakdown, syncRes.Breakdown) {
				t.Errorf("depth=%d cfg=%v: breakdown %v != sync %v", depth, cfg, pre.Breakdown, syncRes.Breakdown)
			}
			if !reflect.DeepEqual(pre.PerClip, syncRes.PerClip) {
				t.Errorf("depth=%d cfg=%v: per-clip tracks differ from synchronous run", depth, cfg)
			}
		}
	}
}

// TestRunSetDeterministicAcrossBatchedInference asserts the batched-GRU
// contract: the recurrent tracker's batched per-frame inference produces
// bit-for-bit identical results to the per-track scalar kernels, end to
// end through RunSet.
func TestRunSetDeterministicAcrossBatchedInference(t *testing.T) {
	defer track.SetBatchedInference(true)

	sys := smallSystem(t)
	cfg := sys.Best
	cfg.Tracker = TrackerRecurrent
	cfg.Gap = 2

	track.SetBatchedInference(false)
	scalar := sys.RunSet(cfg, sys.DS.Val)
	track.SetBatchedInference(true)
	batched := sys.RunSet(cfg, sys.DS.Val)
	if batched.Runtime != scalar.Runtime {
		t.Errorf("batched runtime %v != scalar %v", batched.Runtime, scalar.Runtime)
	}
	if !reflect.DeepEqual(batched.Breakdown, scalar.Breakdown) {
		t.Errorf("batched breakdown %v != scalar %v", batched.Breakdown, scalar.Breakdown)
	}
	if !reflect.DeepEqual(batched.PerClip, scalar.PerClip) {
		t.Error("batched per-clip tracks differ from scalar run")
	}
}

// TestRunClipPooledMatchesPublic pins the pooled clip-execution path used
// by RunSet to the public RunClip: identical tracks and identical charged
// costs, with pooling (and prefetch) only changing where buffers live.
func TestRunClipPooledMatchesPublic(t *testing.T) {
	sys := smallSystem(t)
	for _, cfg := range []Config{sys.Best} {
		pubAcct := costmodel.NewAccountant()
		pub := sys.RunClip(cfg, sys.DS.Val[0].Clip, pubAcct)

		pooledAcct := costmodel.NewAccountant()
		pooled := sys.runClip(t.Context(), cfg, sys.DS.Val[0].Clip, pooledAcct, true)

		if pooled.DetsByFrame != nil {
			t.Error("pooled run must not retain DetsByFrame")
		}
		if len(pub.DetsByFrame) == 0 {
			t.Error("public run must retain DetsByFrame")
		}
		if !reflect.DeepEqual(pub.Tracks, pooled.Tracks) {
			t.Errorf("cfg=%v: pooled tracks differ from public RunClip", cfg)
		}
		if pubAcct.Total() != pooledAcct.Total() {
			t.Errorf("cfg=%v: pooled cost %v != public %v", cfg, pooledAcct.Total(), pubAcct.Total())
		}
	}
}
