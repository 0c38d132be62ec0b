package track

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"otif/internal/costmodel"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/nn"
)

// The recurrent tracker advances hidden states in batches: every Update
// steps all matched tracks with one GRUCell.StepBatchInferInto and starts
// all new tracks with another. The test below pins that batching against
// the scalar reference kernel over detection streams that include empty
// frames (0 active tracks) and single-object rounds (1 active track), and
// the tests after it compare the whole tracker with a scalar reference.

// jitteredStream builds a per-frame detection stream with objects entering
// and leaving, plus dropped detections, so the tracker sees rounds with 0,
// 1 and many active tracks, misses, terminations and restarts.
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

// referenceHidden folds a track's detections through the scalar
// GRUCell.StepInferInto from the zero state: t_elapsed 0 for the first
// detection, and the GapFrames of the round that matched it after that.
func referenceHidden(m *RecurrentModel, dets []detect.Detection, gapAt map[int]int) nn.Vec {
	var scr nn.Scratch
	h := nn.NewVec(m.Hidden)
	var x []float64
	for k, d := range dets {
		elapsed := 0
		if k > 0 {
			elapsed = gapAt[d.FrameIdx]
		}
		x = AppendDetFeatures(x[:0], d, m.NomW, m.NomH, m.FPS, elapsed)
		m.GRU.StepInferInto(h, h, nn.Vec(x), &scr)
	}
	return h
}

// TestRecurrentHiddenStatesMatchScalarFold checks, after every Update,
// that each active track's hidden vector is bit-identical to the scalar
// reference fold over that track's own detections. The processed frames
// are spaced irregularly, so the matched steps' t_elapsed feature changes
// between rounds.
func TestRecurrentHiddenStatesMatchScalarFold(t *testing.T) {
	model, _ := trainedRecurrent(t, 31)
	const frames = 90
	longest := 0
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		byFrame := jitteredStream(rng, frames, 2)
		tracker := NewRecurrentTracker(model, costmodel.NewAccountant())
		gapAt := map[int]int{}
		prev := -2
		for f := 0; f < frames; f += 2 * (1 + rng.Intn(3)) {
			gapAt[f] = f - prev
			prev = f
			tracker.Update(&FrameContext{FrameIdx: f, GapFrames: gapAt[f]}, byFrame[f])
			for i, tr := range tracker.active {
				longest = max(longest, len(tr.track.Dets))
				want := referenceHidden(model, tr.track.Dets, gapAt)
				for k := range want {
					if tr.hidden[k] != want[k] {
						t.Fatalf("trial %d frame %d track %d (%d dets) hidden[%d]: %v != scalar fold %v",
							trial, f, i, len(tr.track.Dets), k, tr.hidden[k], want[k])
					}
				}
			}
		}
		tracker.Finish()
	}
	if longest < 3 {
		t.Fatalf("longest active track had %d detections; the streams never exercised matched steps", longest)
	}
}

// scalarRecurrent is a reference implementation of RecurrentTracker that
// steps each track's hidden state with its own scalar
// GRUCell.StepInferInto call and scores pairs with the allocating
// RecurrentModel.Score. It follows Update and Finish decision for
// decision, so its tracks, confidences and hidden states must match the
// batched tracker bit for bit.
type scalarRecurrent struct {
	ref    *RecurrentTracker // settings only; never updated
	scr    nn.Scratch
	active []*recTrack
	done   []*Track
	conf   float64
}

func newScalarRecurrent(model *RecurrentModel) *scalarRecurrent {
	return &scalarRecurrent{ref: NewRecurrentTracker(model, costmodel.NewAccountant())}
}

func (r *scalarRecurrent) Update(ctx *FrameContext, dets []detect.Detection) {
	m := r.ref.Model
	r.conf = 1
	feats := make([]nn.Vec, len(dets))
	for j, d := range dets {
		feats[j] = DetFeatures(d, m.NomW, m.NomH, m.FPS, ctx.GapFrames)
	}
	usedDet := make([]bool, len(dets))
	if len(r.active) > 0 {
		const blocked = 1e6
		maxDisp := r.ref.MaxSpeed*float64(ctx.GapFrames)/float64(m.FPS) + 0.08*float64(m.NomW)
		cost := make([][]float64, len(r.active))
		for i, tr := range r.active {
			cost[i] = make([]float64, len(dets))
			last := tr.track.Dets[len(tr.track.Dets)-1].Box.Center()
			for j, d := range dets {
				if last.Dist(d.Box.Center()) > maxDisp {
					cost[i][j] = blocked
					continue
				}
				p := m.Score(tr.hidden, feats[j], MotionFeatures(tr.track.Dets, d, m.NomW, m.NomH))
				cost[i][j] = -math.Log(math.Max(p, 1e-9))
			}
		}
		assign := AssignWithThreshold(cost, -math.Log(r.ref.MinProb), blocked)
		var remaining []*recTrack
		for i, tr := range r.active {
			j := assign[i]
			if j < 0 {
				tr.misses++
				if tr.misses > r.ref.MaxMisses {
					r.done = append(r.done, cloneTrack(&tr.track))
				} else {
					remaining = append(remaining, tr)
				}
				continue
			}
			usedDet[j] = true
			if p := math.Exp(-cost[i][j]); p < r.conf {
				r.conf = p
			}
			tr.track.Dets = append(tr.track.Dets, dets[j])
			m.GRU.StepInferInto(tr.hidden, tr.hidden, feats[j], &r.scr)
			tr.misses = 0
			remaining = append(remaining, tr)
		}
		r.active = remaining
	}
	for j, d := range dets {
		if usedDet[j] {
			continue
		}
		h := nn.NewVec(m.Hidden)
		m.GRU.StepInferInto(h, h, DetFeatures(d, m.NomW, m.NomH, m.FPS, 0), &r.scr)
		r.active = append(r.active, &recTrack{track: Track{Dets: []detect.Detection{d}}, hidden: h})
	}
}

func (r *scalarRecurrent) LastConfidence() float64 { return r.conf }

func (r *scalarRecurrent) Finish() []*Track {
	for _, tr := range r.active {
		r.done = append(r.done, cloneTrack(&tr.track))
	}
	out := r.done
	sort.Slice(out, func(i, j int) bool { return out[i].FirstFrame() < out[j].FirstFrame() })
	for i, t := range out {
		t.ID = i
		t.Category = t.MajorityCategory()
	}
	return out
}

// lastConfTracker is what runTracker needs of both implementations.
type lastConfTracker interface {
	Update(*FrameContext, []detect.Detection)
	LastConfidence() float64
	Finish() []*Track
}

func runTracker(tracker lastConfTracker, byFrame map[int][]detect.Detection, frames, gap int) ([]*Track, []float64) {
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
		t.Fatalf("batched tracker produced %d tracks, scalar reference %d", len(got), len(want))
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
// batched GRU inference path: over random detection streams, the tracker
// and the scalar reference must produce bit-identical tracks and
// confidences.
func TestRecurrentBatchedMatchesScalar(t *testing.T) {
	model, _ := trainedRecurrent(t, 31)
	const frames, gap = 80, 4
	matched := 0
	for trial := 0; trial < 8; trial++ {
		byFrame := jitteredStream(rand.New(rand.NewSource(int64(100+trial))), frames, gap)

		wantTracks, wantConfs := runTracker(newScalarRecurrent(model), byFrame, frames, gap)
		gotTracks, gotConfs := runTracker(NewRecurrentTracker(model, costmodel.NewAccountant()), byFrame, frames, gap)

		requireSameTracks(t, gotTracks, wantTracks)
		for i := range wantConfs {
			if gotConfs[i] != wantConfs[i] {
				t.Fatalf("trial %d round %d: confidence %v != %v (must be bit-identical)",
					trial, i, gotConfs[i], wantConfs[i])
			}
			if wantConfs[i] < 1 {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no round accepted an association; the streams never exercised matched steps")
	}
}

// TestRecurrentBatchedHiddenStatesBitIdentical drives the tracker and the
// scalar reference in lockstep and compares every track's hidden vector
// after every round, which catches divergence long before it shows up in
// the final tracks.
func TestRecurrentBatchedHiddenStatesBitIdentical(t *testing.T) {
	model, _ := trainedRecurrent(t, 32)
	const frames, gap = 60, 4
	byFrame := jitteredStream(rand.New(rand.NewSource(200)), frames, gap)

	scalar := newScalarRecurrent(model)
	batched := NewRecurrentTracker(model, costmodel.NewAccountant())
	for f := 0; f < frames; f += gap {
		fc := FrameContext{FrameIdx: f, GapFrames: gap}
		scalar.Update(&fc, byFrame[f])
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
