package track

import (
	"math/rand"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
)

// The batched recurrent inference path must be indistinguishable from the
// scalar reference path: identical tracks, identical hidden-state
// evolution, identical confidences. These tests drive both paths over the
// same detection streams — including empty frames (0 active tracks) and
// single-object clips (1 active track) — and require bit-identical output.

// jitteredStream builds a per-frame detection stream with objects entering
// and leaving, plus dropped detections, so both tracker paths see rounds
// with 0, 1 and many active tracks, misses, terminations and restarts.
func jitteredStream(rng *rand.Rand, frames, gap int) map[int][]detect.Detection {
	byFrame := map[int][]detect.Detection{}
	nObj := 1 + rng.Intn(4)
	for k := 0; k < nObj; k++ {
		x0 := rng.Float64() * 200
		y0 := float64(k)*140 + 20
		vx := 3 + rng.Float64()*5
		enter := rng.Intn(frames / 2)
		leave := enter + frames/3 + rng.Intn(frames/2)
		for f := enter; f < leave && f < frames; f += gap {
			if rng.Float64() < 0.15 {
				continue // dropped detection -> a miss round
			}
			byFrame[f] = append(byFrame[f], detect.Detection{
				FrameIdx: f,
				Box:      geom.Rect{X: x0 + vx*float64(f), Y: y0, W: 40, H: 20},
				Score:    0.9, Category: "car",
				AppMean: 100 + float64(k)*30, AppStd: 15,
			})
		}
	}
	return byFrame
}

func runRecurrent(model *RecurrentModel, byFrame map[int][]detect.Detection, frames, gap int) ([]*Track, []float64) {
	tracker := NewRecurrentTracker(model, costmodel.NewAccountant())
	var confs []float64
	for f := 0; f < frames; f += gap {
		tracker.Update(&FrameContext{FrameIdx: f, GapFrames: gap}, byFrame[f])
		confs = append(confs, tracker.LastConfidence())
	}
	return tracker.Finish(), confs
}

func requireSameTracks(t *testing.T, got, want []*Track) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batched path produced %d tracks, scalar %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Category != want[i].Category {
			t.Fatalf("track %d: (%d, %s) != (%d, %s)", i,
				got[i].ID, got[i].Category, want[i].ID, want[i].Category)
		}
		if len(got[i].Dets) != len(want[i].Dets) {
			t.Fatalf("track %d: %d dets != %d dets", i, len(got[i].Dets), len(want[i].Dets))
		}
		for j := range want[i].Dets {
			if got[i].Dets[j] != want[i].Dets[j] {
				t.Fatalf("track %d det %d differs: %+v != %+v", i, j,
					got[i].Dets[j], want[i].Dets[j])
			}
		}
	}
}

// TestRecurrentBatchedMatchesScalar is the differential test of the
// batched GRU inference path: over random detection streams, batch-on and
// batch-off runs must produce bit-identical tracks and confidences.
func TestRecurrentBatchedMatchesScalar(t *testing.T) {
	model, _ := trainedRecurrent(t, 31)
	defer SetBatchedInference(true)
	const frames, gap = 80, 4
	for trial := 0; trial < 8; trial++ {
		byFrame := jitteredStream(rand.New(rand.NewSource(int64(100+trial))), frames, gap)

		SetBatchedInference(false)
		wantTracks, wantConfs := runRecurrent(model, byFrame, frames, gap)
		SetBatchedInference(true)
		gotTracks, gotConfs := runRecurrent(model, byFrame, frames, gap)

		requireSameTracks(t, gotTracks, wantTracks)
		for i := range wantConfs {
			if gotConfs[i] != wantConfs[i] {
				t.Fatalf("trial %d round %d: confidence %v != %v (must be bit-identical)",
					trial, i, gotConfs[i], wantConfs[i])
			}
		}
	}
}

// TestRecurrentBatchedHiddenStatesBitIdentical drives both paths in
// lockstep and compares every track's hidden vector after every round,
// which catches divergence long before it shows up in the final tracks.
func TestRecurrentBatchedHiddenStatesBitIdentical(t *testing.T) {
	model, _ := trainedRecurrent(t, 32)
	defer SetBatchedInference(true)
	const frames, gap = 60, 4
	byFrame := jitteredStream(rand.New(rand.NewSource(200)), frames, gap)

	scalar := NewRecurrentTracker(model, costmodel.NewAccountant())
	batched := NewRecurrentTracker(model, costmodel.NewAccountant())
	for f := 0; f < frames; f += gap {
		fc := FrameContext{FrameIdx: f, GapFrames: gap}
		SetBatchedInference(false)
		scalar.Update(&fc, byFrame[f])
		SetBatchedInference(true)
		batched.Update(&fc, byFrame[f])

		if len(scalar.active) != len(batched.active) {
			t.Fatalf("frame %d: %d active tracks scalar, %d batched",
				f, len(scalar.active), len(batched.active))
		}
		for i := range scalar.active {
			sh, bh := scalar.active[i].hidden, batched.active[i].hidden
			for k := range sh {
				if sh[k] != bh[k] {
					t.Fatalf("frame %d track %d hidden[%d]: %v != %v (must be bit-identical)",
						f, i, k, bh[k], sh[k])
				}
			}
		}
	}
	requireSameTracks(t, batched.Finish(), scalar.Finish())
}

// TestScratchPoolRecycles pins the pooling contract: a tracker's Finish
// returns its scratch, and a later tracker reuses it with its grown
// buffers intact (observable through the pool counters). sync.Pool may
// drop items at any time — the race detector does so deliberately — so the
// test retries and only skips if the pool never returns a scratch.
func TestScratchPoolRecycles(t *testing.T) {
	hit0, miss0 := metScratchHit.Value(), metScratchMiss.Value()
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		s1 := getScratch()
		grow(&s1.usedDet, 64)
		putScratch(s1)
		s2 := getScratch()
		if s2 == s1 {
			if cap(s2.usedDet) < 64 {
				t.Fatalf("pooled scratch lost its grown buffers: cap %d", cap(s2.usedDet))
			}
			reused = true
		}
		putScratch(s2)
	}
	if metScratchHit.Value() == hit0 && metScratchMiss.Value() == miss0 {
		t.Error("pool counters did not move")
	}
	if !reused {
		t.Skip("sync.Pool never returned the same scratch (drops are legal)")
	}
}

// TestVecArenaZeroesAndRecycles pins the hidden-vector arena contract:
// chunks come back zeroed (new tracks step from the zero hidden state even
// when the slab held stale values) and release reuses slabs.
func TestVecArenaZeroesAndRecycles(t *testing.T) {
	var a vecArena
	v := a.alloc(16)
	for i := range v {
		v[i] = 3.5
	}
	a.release()
	w := a.alloc(16)
	if &v[0] != &w[0] {
		t.Errorf("arena did not reuse its slab after release")
	}
	for i, x := range w {
		if x != 0 {
			t.Fatalf("arena chunk not zeroed at %d: %v", i, x)
		}
	}
	// Steady state allocates nothing.
	a.release()
	if n := testing.AllocsPerRun(50, func() {
		a.release()
		for k := 0; k < 100; k++ {
			a.alloc(16)
		}
	}); n != 0 {
		t.Errorf("arena steady state allocates %v per cycle, want 0", n)
	}
}

// TestSORTUpdateZeroAllocSteadyState pins the SORT scratch conversion: an
// association round with stable tracks allocates nothing beyond retained
// track state.
func TestSORTUpdateZeroAllocSteadyState(t *testing.T) {
	mkDets := func(f int) []detect.Detection {
		return []detect.Detection{
			{FrameIdx: f, Box: geom.Rect{X: 10 + float64(f), Y: 20, W: 40, H: 20}, Score: 0.9, Category: "car"},
			{FrameIdx: f, Box: geom.Rect{X: 300 - float64(f), Y: 200, W: 40, H: 20}, Score: 0.9, Category: "car"},
		}
	}
	s := NewSORT()
	f := 0
	for ; f < 40; f += 2 {
		s.Update(&FrameContext{FrameIdx: f, GapFrames: 2}, mkDets(f))
	}
	// Tracks are established and matched every round: the only allocations
	// left are the occasional Dets append growth, which doubling capacity
	// makes amortized-zero; a single round must allocate at most once.
	n := testing.AllocsPerRun(20, func() {
		s.Update(&FrameContext{FrameIdx: f, GapFrames: 2}, mkDets(f))
		f += 2
	})
	if n > 1 {
		t.Errorf("SORT.Update steady state allocates %v per round, want <= 1", n)
	}
	s.Finish()
}
