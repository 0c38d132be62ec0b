package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"otif/internal/core"
	"otif/internal/dataset"
	"otif/internal/query"
	"otif/internal/serve"
	"otif/internal/store"
)

// queryHandler serves the /v1 query routes over one dataset provider.
func queryHandler(name string, p store.Provider, movements []query.Movement) http.Handler {
	reg := store.NewRegistry()
	reg.Register(name, p)
	return (&serve.Server{Queries: &serve.QueryAPI{Datasets: reg, Movements: func() []query.Movement { return movements }}}).Handler()
}

// runQuery is the query workload: a read-only replica booted from
// exported segments, driven by an open loop at a fixed rate and then by
// a closed loop of nproc clients.
func runQuery(p params, seed int64, tmp string, tr *tracer, r *report) error {
	s, setups, err := setup(p, r)
	if err != nil {
		return err
	}
	qctx := s.sys.Ctx()
	gen := s.ds.Camera(cameraFor(seed, 3), 0)
	qctx.Frames = gen(0).Clip.Len()
	movements := core.MovementsFor(s.ds)

	// The replica's tracks: new camera clips extracted in batches.
	var perClip [][]*query.Track
	var truths []*dataset.ClipTruth
	start := time.Now()
	for b := 0; b < p.ReplicaClips; b += p.Batch {
		clips := make([]*dataset.ClipTruth, min(p.Batch, p.ReplicaClips-b))
		for i := range clips {
			clips[i] = gen(b + i)
		}
		perClip = append(perClip, s.sys.RunSet(s.cfg, clips).PerClip...)
		truths = append(truths, clips...)
	}
	r.add(kindInfo, "query.replica_extract_s", time.Since(start).Seconds(), "s", len(perClip), "not part of setup_s")

	// Export and open the segments once per set-up repetition.
	var boot []time.Duration
	var exports, opens []float64
	var replica *store.Sharded
	var dir string
	for i := range setups {
		dir = filepath.Join(tmp, fmt.Sprintf("segments-%d", i))
		t0 := time.Now()
		if _, err := store.ExportSegments(dir, p.Dataset, qctx, perClip, p.SegClips); err != nil {
			return err
		}
		t1 := time.Now()
		shards, err := store.OpenSegmentsDir(dir, store.NewCache())
		if err != nil {
			return err
		}
		t2 := time.Now()
		replica = shards[p.Dataset]
		if replica == nil || replica.Clips() != len(perClip) {
			return fmt.Errorf("replica from %s does not hold the %d exported clips", dir, len(perClip))
		}
		boot = append(boot, t2.Sub(t0))
		exports = append(exports, t1.Sub(t0).Seconds())
		opens = append(opens, t2.Sub(t1).Seconds())
		if i < len(setups)-1 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	reportSetup(r, setups, boot, tr != nil)
	if tr != nil {
		r.add(kindLayer, "persist.export_s", median(exports), "s", len(exports), "store.ExportSegments, %d clips per segment", p.SegClips)
		r.add(kindLayer, "persist.open_s", median(opens), "s", len(opens), "store.OpenSegmentsDir")
	}

	// 70% of the run is the open loop, so its tail rests on more samples;
	// the closed loop continues the same seeded request stream.
	h := queryHandler(p.Dataset, replica, movements)
	openDur := time.Duration(p.Seconds * 0.7 * float64(time.Second))
	closedDur := time.Duration(p.Seconds*float64(time.Second)) - openDur
	nproc := runtime.NumCPU()
	nOpen := int(p.OpenRate * openDur.Seconds())
	// Room for 5000 req/s in the closed loop; beyond that it wraps around.
	reqs := newMix(seed, s.ds.Cfg.NomW, s.ds.Cfg.NomH, nOpen, int(5000*closedDur.Seconds())+1)
	ans := newAnswers()
	open := openLoop(h, reqs[:nOpen], p.OpenRate, openDur, nproc, ans)
	closed := closedLoop(h, reqs[nOpen:], nproc, closedDur, ans)
	capacity := float64(closed.Done) / closed.Elapsed.Seconds()
	r.attempt(open.Done + closed.Done)

	// Every distinct answer must be byte-identical to a single-segment
	// store's without a cache, built from the same tracks.
	ref := queryHandler(p.Dataset, store.New(perClip, qctx), movements)
	byKey := map[string]request{}
	for _, q := range reqs[:min(len(reqs), nOpen+closed.Done)] {
		byKey[q.key()] = q
	}
	failed, msgs := ans.verify(byKey, func(q request) (int, []byte) { return q.serve(ref) })
	for _, m := range msgs {
		r.note(m)
	}
	r.failN(failed, "%d query answers wrong", failed)

	r.add(kindE2E, "throughput", capacity, "1/s", closed.Done, "query.capacity_rps: closed loop, %d clients", nproc)
	r.add(kindE2E, "p50_ms", median(open.Latency), "ms", len(open.Latency), "query.p50_ms: open loop at %v req/s, from due time", p.OpenRate)
	r.add(kindInfo, "query.p99_ms", quantile(open.Latency, 0.99), "ms", len(open.Latency), "%d samples beyond", beyond(len(open.Latency), 0.99))
	r.add(kindE2E, "accuracy", s.metric.Accuracy(perClip, truths), "ratio", len(perClip), "%s over the replica's clips", s.metric.Name())
	r.add(kindInfo, "query.repeat_share", repeatShare(reqs[:open.Done]), "ratio", open.Done, "open-loop requests repeating an earlier one")
	r.add(kindInfo, "query.open_load_frac", p.OpenRate/capacity, "ratio", 1, "open-loop rate / closed-loop capacity")
	r.add(kindInfo, "query.generator_late_p50_ms", median(open.Late), "ms", len(open.Late), "")
	r.add(kindInfo, "query.generator_late_max_ms", quantile(open.Late, 1), "ms", len(open.Late), "")
	if tr == nil {
		return nil
	}

	reportCache(r, replica.Cache().Stats())
	// Layer pass on two fresh replicas of the same segments, so the
	// direct and the served side each start from an empty cache.
	direct, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		return err
	}
	servedSh, err := store.OpenSegmentsDir(dir, store.NewCache())
	if err != nil {
		return err
	}
	layerPass(direct[p.Dataset], queryHandler(p.Dataset, servedSh[p.Dataset], movements), reqs[:min(p.LayerQueries, len(reqs))], movements, tr, r)
	return nil
}
