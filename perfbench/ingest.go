package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/ingest"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/query"
	"otif/internal/serve"
	"otif/internal/store"
	"otif/internal/video"
	"otif/internal/vidsim"
)

// firstRead wraps a clip's source and notes when its first frame is read:
// the moment an extraction worker took the clip off the ingest queue.
type firstRead struct {
	video.FrameSource
	t0 time.Time
	at atomic.Int64 // ns since t0; 0 until the first read
}

func (s *firstRead) Frame(idx int) *video.Frame {
	if s.at.Load() == 0 {
		s.at.CompareAndSwap(0, int64(time.Since(s.t0)))
	}
	return s.FrameSource.Frame(idx)
}

// ingestClip is one camera clip's timeline, relative to the session start.
type ingestClip struct {
	truth    *dataset.ClipTruth
	due      time.Duration // when the camera produces the clip
	returned time.Duration // when the Clip callback handed it to the session
	src      *firstRead
}

// runIngest is the ingest workload: cameras emit clips on the benchmark's
// schedule into a streaming ingest session with backpressure, while an
// open loop queries the live store through the HTTP handler.
func runIngest(p params, seed int64, tmp string, tr *tracer, r *report) error {
	s, setups, err := setup(p, r)
	if err != nil {
		return err
	}
	reportSetup(r, setups, nil, tr != nil)
	perCam := int(p.Seconds / p.ClipPeriod.Seconds())
	clips := make([]*ingestClip, p.Cameras*perCam)
	qctx := s.sys.Ctx()
	qctx.Frames = s.ds.Camera(0, 0)(0).Clip.Len()
	movements := core.MovementsFor(s.ds)
	var zero int32 // renders in ingest have no enclosing span

	// A camera produces clip i at its due time; the callback blocks until
	// then, so the schedule belongs to the benchmark and the session's own
	// interval stays 0. The cameras are synchronized: their clips fall due
	// together and keep every worker busy at once, so a clip's freshness
	// does not hinge on whether a core happened to be idle.
	t0 := time.Now().Add(50 * time.Millisecond)
	cams := make([]ingest.Camera, p.Cameras)
	for c := range cams {
		gen := s.ds.Camera(cameraFor(seed, 1+c), 0)
		cams[c] = ingest.Camera{
			Name:  fmt.Sprintf("cam%d", c),
			Limit: perCam,
			Clip: func(i int) *video.Clip {
				due := time.Duration(i) * p.ClipPeriod
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				ct := gen(i)
				if tr != nil {
					ct.Clip.Source = video.NewCachedSource(&renderTimer{src: &vidsim.Source{World: ct.World}, tr: tr, parent: &zero})
				}
				ic := &ingestClip{truth: ct, due: due, src: &firstRead{FrameSource: ct.Clip.Source, t0: t0}}
				ic.returned = time.Since(t0)
				clips[c*perCam+i] = ic
				return &video.Clip{ID: i, Source: ic.src}
			},
		}
	}
	published := make([]time.Duration, len(clips)) // by store clip index
	sess, err := ingest.Start(context.Background(), s.sys, ingest.Options{
		Cameras: cams,
		Cfg:     s.cfg,
		Ctx:     qctx,
		Progress: func(e obs.Event) {
			if e.Kind == obs.EventIngestClip {
				published[e.Index] = time.Since(t0)
			}
		},
	})
	if err != nil {
		return err
	}
	reg := store.NewRegistry()
	reg.Register(p.Dataset, sess.Live())
	h := (&serve.Server{Queries: &serve.QueryAPI{Datasets: reg, Movements: func() []query.Movement { return movements }}}).Handler()

	var depth []float64
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if tr == nil {
			return
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				depth = append(depth, float64(sess.Stats().QueueDepth))
			case <-stopSampling:
				return
			}
		}
	}()

	dur := time.Duration(p.Seconds * float64(time.Second))
	time.Sleep(time.Until(t0))
	reqs := newMix(seed, s.ds.Cfg.NomW, s.ds.Cfg.NomH, int(p.IngestRate*p.Seconds)+1)
	ans := newAnswers()
	load := openLoop(h, reqs, p.IngestRate, dur, runtime.NumCPU(), ans)
	if err := sess.Wait(); err != nil {
		return err
	}
	close(stopSampling)
	<-sampled

	// Conservation: every emitted clip is published exactly once.
	st := sess.Stats()
	log := sess.Published()
	var emitted int64
	for _, c := range st.Cameras {
		emitted += c.ClipsEmitted
		if c.Lag != 0 {
			r.fail("camera %s: lag %d after drain", c.Name, c.Lag)
		}
	}
	if emitted != st.ClipsIngested+st.ClipsDropped || emitted != int64(len(clips)) || st.ClipsDropped != 0 {
		r.fail("conservation: emitted %d, published %d, dropped %d, scheduled %d",
			emitted, st.ClipsIngested, st.ClipsDropped, len(clips))
	}
	seen := make([]int, len(clips))
	byClip := make([]ingest.PublishedClip, len(clips))
	for _, pc := range log {
		seen[pc.Camera*perCam+pc.CamClip]++
		byClip[pc.Camera*perCam+pc.CamClip] = pc
	}
	for k, n := range seen {
		if n != 1 {
			r.fail("camera %d clip %d published %d times", k/perCam, k%perCam, n)
		}
	}
	r.attempt(len(clips) + load.Done)
	if n := ans.bad; n > 0 {
		r.failN(n, "%d live queries answered non-200", n)
	}

	// A seeded sample of published clips must equal batch RunSet.
	snap := sess.Live().Shards()
	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(len(clips))[:min(p.IngestChecks, len(clips))] {
		if seen[k] == 0 {
			continue // already counted as a failure above
		}
		pc := byClip[k]
		gen := s.ds.Camera(cameraFor(seed, 1+pc.Camera), 0)
		res := s.sys.RunSet(s.cfg, []*dataset.ClipTruth{gen(pc.CamClip)})
		checkClip(r, fmt.Sprintf("ingest camera %d clip %d", pc.Camera, pc.CamClip),
			extractResult{tracks: res.PerClip[0], runtime: res.Runtime}, snap.Tracks(pc.StoreClip), pc.Runtime)
	}

	var fresh, wait, service, late []float64
	perClip := make([][]*query.Track, len(clips))
	truths := make([]*dataset.ClipTruth, len(clips))
	var busy, lastPub time.Duration
	for _, pc := range log {
		ic := clips[pc.Camera*perCam+pc.CamClip]
		pub := published[pc.StoreClip]
		read := time.Duration(ic.src.at.Load())
		fresh = append(fresh, ms(pub-ic.due))
		late = append(late, ms(max(0, ic.returned-ic.due)))
		wait = append(wait, ms(read-ic.returned))
		service = append(service, ms(pub-read))
		busy += pub - read
		lastPub = max(lastPub, pub)
		perClip[pc.Camera*perCam+pc.CamClip] = snap.Tracks(pc.StoreClip)
		truths[pc.Camera*perCam+pc.CamClip] = ic.truth
		if tr != nil {
			id := tr.record(0, "ingest.clip", ic.due, pub)
			tr.record(id, "ingest.late", ic.due, max(ic.due, ic.returned))
			tr.record(id, "ingest.queue_wait", ic.returned, read)
			tr.record(id, "ingest.service", read, pub)
		}
	}
	r.add(kindE2E, "throughput", float64(len(log))/(lastPub-clips[0].due).Seconds(), "1/s", len(log),
		"ingest.clips_per_s: clips published per second, first clip due -> last published")
	r.add(kindInfo, "ingest.service_capacity_per_s", float64(len(log))/(busy.Seconds()/float64(parallel.Workers())), "clips/s", len(log),
		"clips per worker-second of extraction service, x %d workers", parallel.Workers())
	r.add(kindE2E, "p50_ms", median(fresh), "ms", len(fresh), "ingest.fresh_p50_ms: clip due -> published and queryable")
	r.add(kindInfo, "ingest.fresh_p90_ms", quantile(fresh, 0.9), "ms", len(fresh), "%d samples beyond", beyond(len(fresh), 0.9))
	r.add(kindE2E, "accuracy", s.metric.Accuracy(perClip, truths), "ratio", len(perClip), "%s over every published clip", s.metric.Name())
	r.add(kindInfo, "ingest.query_p50_ms", median(load.Latency), "ms", len(load.Latency), "open loop at %v req/s, from due time", p.IngestRate)
	r.add(kindInfo, "ingest.query_p98_ms", quantile(load.Latency, 0.98), "ms", len(load.Latency), "%d samples beyond", beyond(len(load.Latency), 0.98))
	r.add(kindInfo, "ingest.generator_late_p50_ms", median(load.Late), "ms", len(load.Late), "")
	r.add(kindInfo, "ingest.generator_late_max_ms", quantile(load.Late, 1), "ms", len(load.Late), "")
	if tr == nil {
		return nil
	}

	r.add(kindLayer, "ingest.late_ms", mean(late), "ms", len(late), "mean Clip callback entry after the clip was due")
	r.add(kindLayer, "ingest.queue_wait_ms", mean(wait), "ms", len(wait), "mean Clip returned -> first frame read")
	r.add(kindLayer, "ingest.service_ms", mean(service), "ms", len(service), "mean first frame read -> published")
	r.add(kindLayer, "ingest.queue_depth", mean(depth), "count", len(depth), "mean of 10 ms samples")
	cs := snap.Cache().Stats()
	reportCache(r, cs)

	// Replay the publications into fresh live stores: one timed, one to
	// serve the layer pass through the handler.
	timed := store.NewLive(qctx)
	served := store.NewLive(qctx)
	for _, pc := range log {
		tracks := snap.Tracks(pc.StoreClip)
		id := tr.start(0, "store.live_append")
		timed.Append(tracks)
		tr.end(id)
		served.Append(tracks)
	}
	a := tr.summarize()["store.live_append"]
	r.add(kindLayer, "store.live_append_us", a.selfPer(time.Microsecond), "us", a.Calls, "replayed Live.Append of the published tracks")
	reg2 := store.NewRegistry()
	reg2.Register(p.Dataset, served)
	h2 := (&serve.Server{Queries: &serve.QueryAPI{Datasets: reg2, Movements: func() []query.Movement { return movements }}}).Handler()
	layerPass(timed.Snapshot(), h2, reqs[:min(p.LayerQueries, len(reqs))], movements, tr, r)
	rs := tr.summarize()["vidsim.render"]
	r.add(kindLayer, "vidsim.render_ms", rs.selfPer(time.Millisecond), "ms", rs.Calls, "per rendered frame, under ingest load")

	// Ship the ingested clips to a replica: export them as segments and
	// open them again.
	pub := make([][]*query.Track, snap.Clips())
	for i := range pub {
		pub[i] = snap.Tracks(i)
	}
	dir := filepath.Join(tmp, "segments")
	exportStart := time.Now()
	if _, err := store.ExportSegments(dir, p.Dataset, qctx, pub, p.SegClips); err != nil {
		return err
	}
	openStart := time.Now()
	shards, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		return err
	}
	opened := time.Now()
	if sh := shards[p.Dataset]; sh == nil || sh.Clips() != len(pub) {
		r.fail("replica from %s does not hold the %d exported clips", dir, len(pub))
	}
	r.add(kindLayer, "persist.export_s", openStart.Sub(exportStart).Seconds(), "s", 1, "store.ExportSegments of the ingested clips, %d clips per segment", p.SegClips)
	r.add(kindLayer, "persist.open_s", opened.Sub(openStart).Seconds(), "s", 1, "store.OpenSegmentsDir")
	return nil
}

// reportCache reports a store result cache's counters over the run.
func reportCache(r *report, cs store.CacheStats) {
	n := cs.Hits + cs.Fills + cs.Dedup
	ratio := 0.0
	if n > 0 {
		ratio = float64(cs.Hits) / float64(n)
	}
	r.add(kindLayer, "store.cache_hit_ratio", ratio, "ratio", int(n), "hits / (hits + fills + dedup)")
	r.add(kindLayer, "store.cache_dedup", float64(cs.Dedup), "count", int(n), "callers that shared a concurrent fill")
}
