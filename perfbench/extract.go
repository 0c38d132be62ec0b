package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"otif/internal/core"
	"otif/internal/costmodel"
	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/nn"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/persist"
	"otif/internal/proxy"
	"otif/internal/query"
	"otif/internal/track"
	"otif/internal/video"
	"otif/internal/vidsim"
)

// cameraFor maps the workload seed to a camera feed of the dataset. Feeds
// are deterministic and their clips are disjoint from the sets the
// program trains and tunes on, so every seed extracts footage the process
// has never seen.
func cameraFor(seed int64, k int) int {
	const feeds = 1 << 20
	return int(((seed%feeds)+feeds)%feeds)*4 + k
}

// extractResult is one timed clip: its tracks and simulated seconds.
type extractResult struct {
	tracks  []*query.Track
	runtime float64
}

// runExtract is the extract workload: batches of new camera clips through
// System.RunSet for the measured time, then the correctness checks and,
// when tr is non-nil, the layer-by-layer replay.
func runExtract(p params, seed int64, tr *tracer, r *report) error {
	s, setups, err := setup(p, r)
	if err != nil {
		return err
	}
	reportSetup(r, setups, nil, tr != nil)
	gen := s.ds.Camera(cameraFor(seed, 0), 0)
	workers := parallel.Workers()

	cacheBefore := video.GlobalCacheStats()
	var (
		rates, lat []float64
		results    []extractResult
		accTracks  [][]*query.Track
		accTruth   []*dataset.ClipTruth
	)
	deadline := time.Now().Add(time.Duration(p.Seconds * float64(time.Second)))
	for b := 0; b < p.AccBatches || time.Now().Before(deadline); b++ {
		clips := make([]*dataset.ClipTruth, p.Batch)
		for i := range clips {
			clips[i] = gen(b*p.Batch + i)
		}
		runtimes := make([]float64, p.Batch)
		done := make([]time.Duration, p.Batch)
		start := time.Now()
		s.sys.Progress = func(e obs.Event) {
			runtimes[e.Index] = e.Runtime
			done[e.Index] = time.Since(start)
		}
		res := s.sys.RunSet(s.cfg, clips)
		d := time.Since(start)
		s.sys.Progress = nil
		rates = append(rates, float64(p.Batch)/d.Seconds())
		for i := range clips {
			lat = append(lat, ms(done[i]))
			results = append(results, extractResult{tracks: res.PerClip[i], runtime: runtimes[i]})
		}
		if b < p.AccBatches {
			accTracks = append(accTracks, res.PerClip...)
			// Rendered frames live in the bounded frame cache, not in
			// the clip, so keeping the clip keeps only its world.
			accTruth = append(accTruth, clips...)
		}
	}
	cacheAfter := video.GlobalCacheStats()
	r.attempt(len(results))

	acc := s.metric.Accuracy(accTracks, accTruth)
	r.add(kindE2E, "throughput", median(rates), "1/s", len(rates), "extract.clips_per_s: median over RunSet batches of %d clips; %v, %d workers", p.Batch, s.cfg, workers)
	r.add(kindE2E, "p50_ms", median(lat), "ms", len(lat), "clip tracks ready, from batch submit")
	r.add(kindInfo, "extract.p90_ms", quantile(lat, 0.9), "ms", len(lat), "clip tracks ready, p90; %d samples beyond", beyond(len(lat), 0.9))
	r.add(kindE2E, "accuracy", acc, "ratio", len(accTracks), "extract.accuracy: %s over the first %d clips", s.metric.Name(), len(accTracks))
	r.add(kindLayer, "video.run_cache_hit_ratio", cacheDelta(cacheBefore, cacheAfter), "ratio", 1, "frame cache during timed extraction")

	// Re-extract a seeded sample at one worker: tracks and simulated
	// seconds must be bit-identical to the timed parallel run. The sample
	// comes from the batches every run extracts, so it depends on the seed
	// alone.
	rng := rand.New(rand.NewSource(seed))
	sample := rng.Perm(p.AccBatches * p.Batch)
	checks := sample[:min(p.ExtractChecks, len(sample))]
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	for _, i := range checks {
		one := s.sys.RunSet(s.cfg, []*dataset.ClipTruth{gen(i)})
		checkClip(r, fmt.Sprintf("extract clip %d at 1 worker", i), results[i], one.PerClip[0], one.Runtime)
	}
	parallel.SetWorkers(prev)

	if tr == nil {
		return nil
	}
	replay := sample[len(checks):min(len(checks)+p.ReplayClips, len(sample))]
	return replayLayers(s, gen, replay, results, median(rates), workers, tr, r)
}

func cacheDelta(a, b video.CacheStats) float64 {
	hits := float64(b.Hits - a.Hits)
	misses := float64(b.Misses - a.Misses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// checkClip counts a failure unless got's tracks and simulated seconds
// are bit-identical to want.
func checkClip(r *report, what string, want extractResult, got []*query.Track, runtime float64) {
	if !sameTracks(want.tracks, got) {
		r.fail("%s: tracks differ", what)
	}
	if math.Float64bits(want.runtime) != math.Float64bits(runtime) {
		r.fail("%s: simulated seconds %v, want %v", what, runtime, want.runtime)
	}
}

// sameTracks reports whether two clips' tracks encode to the same bytes
// in the program's own track format, which stores every float bit for bit.
func sameTracks(a, b []*query.Track) bool {
	var ba, bb bytes.Buffer
	if err := persist.WriteTracks(&ba, [][]*query.Track{a}); err != nil {
		return false
	}
	if err := persist.WriteTracks(&bb, [][]*query.Track{b}); err != nil {
		return false
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

// replayLayers replays sampled timed clips serially through the layers'
// public calls, alternating untraced and traced passes over the same
// clips, and reports per-layer self times, the parallel efficiency of the
// timed run and the tracing overhead. Each replayed clip must equal what
// RunSet produced for it.
func replayLayers(s *system, gen func(int) *dataset.ClipTruth, idx []int, results []extractResult,
	rate float64, workers int, tr *tracer, r *report) error {
	// Frames are read synchronously, so render nests under the read that
	// asked for it and every layer runs on this goroutine.
	prevDepth := video.PrefetchDepth()
	video.SetPrefetchDepth(0)
	defer video.SetPrefetchDepth(prevDepth)

	var plain, traced time.Duration
	var st replayStats
	for k, i := range idx {
		// Alternate which pass goes first, so warm-up favours neither.
		order := []*tracer{nil, tr}
		if k%2 == 1 {
			order = []*tracer{tr, nil}
		}
		for _, t := range order {
			start := time.Now()
			tracks, runtime := replayClip(s, gen(i), t, &st)
			d := time.Since(start)
			if t == nil {
				plain += d
			} else {
				traced += d
			}
			checkClip(r, fmt.Sprintf("replay of clip %d", i), results[i], tracks, runtime)
		}
	}
	r.attempt(2 * len(idx))
	n := float64(len(idx))
	serialRate := n / plain.Seconds()
	r.add(kindLayer, "core.parallel_eff", rate/(float64(workers)*serialRate), "ratio", len(idx),
		"timed clips/s / (%d workers x serial replay clips/s %.2f)", workers, serialRate)
	r.add(kindLayer, "trace.overhead_frac", traced.Seconds()/plain.Seconds()-1, "ratio", len(idx), "traced vs untraced replay time")

	sum := tr.summarize()
	per := func(name string, unit time.Duration) float64 { return sum[name].selfPer(unit) }
	clip := sum["core.clip"]
	r.add(kindLayer, "vidsim.render_ms", per("vidsim.render", time.Millisecond), "ms", sum["vidsim.render"].Calls, "self time per rendered frame")
	r.add(kindLayer, "video.read_ms", per("video.read", time.Millisecond), "ms", sum["video.read"].Calls, "Reader.Next self time (render excluded)")
	r.add(kindLayer, "proxy.score_ms", per("proxy.score", time.Millisecond), "ms", sum["proxy.score"].Calls, "")
	r.add(kindLayer, "proxy.threshold_us", per("proxy.threshold", time.Microsecond), "us", sum["proxy.threshold"].Calls, "")
	r.add(kindLayer, "proxy.group_us", per("proxy.group", time.Microsecond), "us", sum["proxy.group"].Calls, "")
	r.add(kindLayer, "proxy.area_frac", st.areaFrac(), "ratio", st.frames, "detector window area / frame area")
	r.add(kindLayer, "detect.ms", per("detect", time.Millisecond), "ms", sum["detect"].Calls, "")
	r.add(kindLayer, "detect.dets_per_frame", float64(st.dets)/float64(max(st.frames, 1)), "count", st.frames, "")
	r.add(kindLayer, "track.update_us", per("track.update", time.Microsecond), "us", sum["track.update"].Calls, "")
	r.add(kindLayer, "track.finish_us", per("track.finish", time.Microsecond), "us", sum["track.finish"].Calls, "Finish + PruneShort")
	r.add(kindLayer, "core.query_tracks_us", per("core.query_tracks", time.Microsecond), "us", sum["core.query_tracks"].Calls, "")
	r.add(kindLayer, "core.clip_ms", float64(clip.Total)/float64(max(clip.Calls, 1))/float64(time.Millisecond), "ms", clip.Calls, "")
	r.add(kindLayer, "core.unattributed_frac", float64(clip.Self)/float64(max(clip.Total, 1)), "ratio", clip.Calls, "clip time outside every layer span")
	return nil
}

// replayStats counts frame-level work across traced replays.
type replayStats struct {
	frames, dets   int
	windowAreaFrac float64
}

func (s *replayStats) areaFrac() float64 {
	if s.frames == 0 {
		return 0
	}
	return s.windowAreaFrac / float64(s.frames)
}

// renderTimer wraps the simulator source beneath the frame cache, so each
// span covers one real render: the first read of a sampled frame.
type renderTimer struct {
	src    video.FrameSource
	tr     *tracer
	parent *int32
}

func (s *renderTimer) Frame(idx int) *video.Frame {
	id := s.tr.start(*s.parent, "vidsim.render")
	f := s.src.Frame(idx)
	s.tr.end(id)
	return f
}
func (s *renderTimer) Len() int { return s.src.Len() }
func (s *renderTimer) FPS() int { return s.src.FPS() }

// replayClip runs one clip the way core's clip loop does for a fixed-gap
// configuration, through the layers' public calls only, with a span
// around each call. It returns the clip's query tracks and simulated
// seconds, which must equal RunSet's.
func replayClip(s *system, ct *dataset.ClipTruth, tr *tracer, st *replayStats) ([]*query.Track, float64) {
	sys, cfg := s.sys, s.cfg
	nomW, nomH := sys.DS.Cfg.NomW, sys.DS.Cfg.NomH
	var cur int32
	clip := &video.Clip{ID: ct.Clip.ID, Source: video.NewCachedSource(
		&renderTimer{src: &vidsim.Source{World: ct.World}, tr: tr, parent: &cur})}

	acct := costmodel.NewAccountant()
	prec := nn.ActivePrecision()
	detW, detH := cfg.DetRes(nomW, nomH)
	detector := &detect.Detector{
		Cfg:        detect.Config{Arch: cfg.Arch, Width: detW, Height: detH, ConfThresh: cfg.DetConf},
		Background: sys.Background,
		Classify:   sys.Classifier,
		Acct:       acct,
		Prec:       prec,
	}
	defer detector.Release()
	var (
		pm   *proxy.Model
		ws   *proxy.WindowSet
		grid *proxy.Grid
	)
	if cfg.UseProxy && len(sys.Proxies) > 0 {
		pm = sys.Proxies[max(0, min(cfg.ProxyIdx, len(sys.Proxies)-1))]
		ws = proxy.NewWindowSet(nomW, nomH, cfg.Arch.PerPixelCost(), cfg.DetScale, sys.WindowSizes)
		grid = proxy.NewGrid(nomW, nomH)
	}
	tracker := newTracker(sys, cfg, acct, prec)

	clipID := tr.start(0, "core.clip")
	frames, dets, area := 0, 0, 0.0
	reader := video.NewReader(clip, cfg.Gap, detW, detH, acct)
	for {
		cur = tr.start(clipID, "video.read")
		frame, idx := reader.Next()
		tr.end(cur)
		if frame == nil {
			break
		}
		var ds []detect.Detection
		if pm != nil {
			id := tr.start(clipID, "proxy.score")
			scores := pm.ScorePrec(prec, frame, sys.Background, acct)
			tr.end(id)
			id = tr.start(clipID, "proxy.threshold")
			proxy.ThresholdInto(grid, scores, cfg.ProxyThresh)
			tr.end(id)
			id = tr.start(clipID, "proxy.group")
			wins := proxy.Group(grid, ws)
			tr.end(id)
			for _, w := range wins {
				area += w.W * w.H / float64(nomW*nomH)
			}
			if len(wins) > 0 {
				id = tr.start(clipID, "detect")
				ds = detector.DetectWindows(frame, idx, wins)
				tr.end(id)
			}
		} else {
			area++
			id := tr.start(clipID, "detect")
			ds = detector.Detect(frame, idx)
			tr.end(id)
		}
		frames++
		dets += len(ds)
		id := tr.start(clipID, "track.update")
		tracker.Update(&track.FrameContext{FrameIdx: idx, GapFrames: cfg.Gap}, ds)
		tr.end(id)
	}
	reader.Close()
	id := tr.start(clipID, "track.finish")
	tracks := track.PruneShort(tracker.Finish(), 2)
	tr.end(id)
	id = tr.start(clipID, "core.query_tracks")
	out := sys.QueryTracks(cfg, tracks, clip.Len())
	tr.end(id)
	tr.end(clipID)

	if tr != nil {
		st.frames += frames
		st.dets += dets
		st.windowAreaFrac += area
	}
	return out, acct.Total()
}

// newTracker builds the configuration's tracker with core's termination
// rule: a track survives 0.8 s of unmatched processed frames, and at
// least two.
func newTracker(sys *core.System, cfg core.Config, acct *costmodel.Accountant, prec nn.Precision) track.Tracker {
	misses := max(2, int(0.8*float64(sys.DS.Cfg.FPS)/float64(cfg.Gap)))
	switch {
	case cfg.Tracker == core.TrackerRecurrent && sys.Recurrent != nil:
		t := track.NewRecurrentTracker(sys.Recurrent, acct)
		t.MaxMisses, t.Prec = misses, prec
		return t
	case cfg.Tracker == core.TrackerPair && sys.Pair != nil:
		t := track.NewPairTracker(sys.Pair, acct)
		t.MaxMisses, t.Prec = misses, prec
		return t
	}
	t := track.NewSORT()
	t.MaxMisses = misses
	return t
}
