package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"otif/internal/nn"
	"otif/internal/obs"
	"otif/internal/parallel"
	"otif/internal/video"
)

// This file implements `benchtables -perf`: a machine-readable performance
// report over the zero-allocation inference kernels (scalar and batched),
// and the end-to-end extraction path with and without the frame cache.
// The report is what the BENCH_PR*.json files in the repository root are
// generated from; CI and humans read it to confirm the kernels stay
// allocation-free and the cache and pools pay for themselves.

// PerfRecord is one benchmark result.
type PerfRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PerfCacheStats summarizes frame-cache effectiveness during the cached
// end-to-end benchmark run.
type PerfCacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// PerfPoolStats summarizes per-clip pool traffic during the cached
// end-to-end benchmark run: hits are reuses, misses are fresh
// constructions. High hit rates mean clip execution runs on recycled
// buffers at steady state.
type PerfPoolStats struct {
	TrackScratchHit  int64   `json:"track_scratch_hit"`
	TrackScratchMiss int64   `json:"track_scratch_miss"`
	DetectArenaHit   int64   `json:"detect_arena_hit"`
	DetectArenaMiss  int64   `json:"detect_arena_miss"`
	DetectScratchHit int64   `json:"detect_scratch_hit"`
	DetectScratchMis int64   `json:"detect_scratch_miss"`
	HitRate          float64 `json:"hit_rate"`
}

// PerfReport is the full report emitted by Perf.
type PerfReport struct {
	Dataset string         `json:"dataset"`
	Clips   int            `json:"clips"`
	Seconds float64        `json:"clip_seconds"`
	Records []PerfRecord   `json:"records"`
	Cache   PerfCacheStats `json:"cache"`
	Pools   PerfPoolStats  `json:"pools"`
}

// poolCounters reads the per-clip pool counters from the process metrics
// registry. Perf diffs two reads to isolate one benchmark's traffic.
func poolCounters() PerfPoolStats {
	c := obs.Default.Snapshot().Counters
	return PerfPoolStats{
		TrackScratchHit:  c["track.pool.scratch.hit"],
		TrackScratchMiss: c["track.pool.scratch.miss"],
		DetectArenaHit:   c["detect.pool.arena.hit"],
		DetectArenaMiss:  c["detect.pool.arena.miss"],
		DetectScratchHit: c["detect.pool.scratch.hit"],
		DetectScratchMis: c["detect.pool.scratch.miss"],
	}
}

// diff returns p minus base, with the aggregate hit rate recomputed over
// the difference.
func (p PerfPoolStats) diff(base PerfPoolStats) PerfPoolStats {
	d := PerfPoolStats{
		TrackScratchHit:  p.TrackScratchHit - base.TrackScratchHit,
		TrackScratchMiss: p.TrackScratchMiss - base.TrackScratchMiss,
		DetectArenaHit:   p.DetectArenaHit - base.DetectArenaHit,
		DetectArenaMiss:  p.DetectArenaMiss - base.DetectArenaMiss,
		DetectScratchHit: p.DetectScratchHit - base.DetectScratchHit,
		DetectScratchMis: p.DetectScratchMis - base.DetectScratchMis,
	}
	hits := d.TrackScratchHit + d.DetectArenaHit + d.DetectScratchHit
	total := hits + d.TrackScratchMiss + d.DetectArenaMiss + d.DetectScratchMis
	if total > 0 {
		d.HitRate = float64(hits) / float64(total)
	}
	return d
}

func record(name string, fn func(b *testing.B)) PerfRecord {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return PerfRecord{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// Perf runs the kernel microbenchmarks and the end-to-end extraction
// benchmark (cache on and off) for the named dataset, writing the report
// as indented JSON. End-to-end runs are serial so allocation counts are
// deterministic; the cache-on run reports the frame cache's hit rate.
func (s *Suite) Perf(w io.Writer, name string) error {
	t, err := s.System(name)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(1))
	dense := nn.NewDense(32, 32, nn.ReLUAct, rng)
	x32 := nn.NewVec(32)
	for i := range x32 {
		x32[i] = rng.Float64()
	}
	gru := nn.NewGRUCell(7, 16, rng)
	x7 := nn.NewVec(7)
	for i := range x7 {
		x7[i] = rng.Float64()
	}
	lr := nn.NewLogReg(4, rng)
	x4 := nn.Vec{0.3, 0.1, 0.8, 0.5}
	mlp := nn.NewMLP([]int{28, 24, 1}, nn.ReLUAct, nn.SigmoidAct, rng)
	x28 := nn.NewVec(28)
	for i := range x28 {
		x28[i] = rng.Float64()
	}

	var sink float64
	records := []PerfRecord{
		record("DenseApply", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += dense.Apply(x32)[0]
			}
		}),
		record("DenseApplyInto", func(b *testing.B) {
			dst := nn.NewVec(32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += dense.ApplyInto(dst, x32)[0]
			}
		}),
		record("GRUStepInfer", func(b *testing.B) {
			h := nn.NewVec(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += gru.StepInfer(h, x7)[0]
			}
		}),
		record("GRUStepInferInto", func(b *testing.B) {
			var scr nn.Scratch
			h := nn.NewVec(16)
			gru.StepInferInto(h, h, x7, &scr) // warm the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += gru.StepInferInto(h, h, x7, &scr)[0]
			}
		}),
		record("LogRegPredict", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += lr.Predict(x4)
			}
		}),
		record("MLPApply", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += mlp.Apply(x28)[0]
			}
		}),
		record("MLPApplyWith", func(b *testing.B) {
			var scr nn.Scratch
			mlp.ApplyWith(&scr, x28) // warm the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += mlp.ApplyWith(&scr, x28)[0]
			}
		}),
	}

	// Batched vs. per-row scalar kernels at a representative batch of 16
	// (roughly the active-track count of a busy frame). The batched rows
	// must be allocation-free and beat their per-row equivalents; both
	// produce bit-identical outputs (pinned by internal/nn tests).
	const batchRows = 16
	xb32 := nn.NewVec(batchRows * 32)
	for i := range xb32 {
		xb32[i] = rng.Float64()
	}
	hb16 := nn.NewVec(batchRows * 16)
	xb7 := nn.NewVec(batchRows * 7)
	for i := range xb7 {
		xb7[i] = rng.Float64()
	}
	records = append(records,
		record("DenseApplyBatchInto16", func(b *testing.B) {
			dst := nn.NewVec(batchRows * 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += dense.ApplyBatchInto(dst, xb32, batchRows)[0]
			}
		}),
		record("DenseApplyIntoPerRow16", func(b *testing.B) {
			dst := nn.NewVec(batchRows * 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < batchRows; r++ {
					sink += dense.ApplyInto(dst[r*32:(r+1)*32], xb32[r*32:(r+1)*32])[0]
				}
			}
		}),
		record("GRUStepBatchInferInto16", func(b *testing.B) {
			var scr nn.BatchScratch
			gru.StepBatchInferInto(hb16, hb16, xb7, batchRows, &scr) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += gru.StepBatchInferInto(hb16, hb16, xb7, batchRows, &scr)[0]
			}
		}),
		record("GRUStepInferIntoPerRow16", func(b *testing.B) {
			var scr nn.Scratch
			gru.StepInferInto(hb16[:16], hb16[:16], xb7[:7], &scr) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < batchRows; r++ {
					sink += gru.StepInferInto(hb16[r*16:(r+1)*16], hb16[r*16:(r+1)*16], xb7[r*7:(r+1)*7], &scr)[0]
				}
			}
		}),
	)

	// End-to-end extraction, serial: cache off, then cache on. The cache
	// budget is back at its default afterwards, and a fresh cache is
	// installed before the cached run so the reported hit rate covers
	// exactly that run. Pool counters are diffed around the
	// cached run for the same reason.
	prevWorkers := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prevWorkers)
	cfg := t.Sys.Best
	clips := t.Sys.DS.Val

	video.SetCacheBudget(0)
	records = append(records, record("RunSetCacheOff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += t.Sys.RunSet(cfg, clips).Runtime
		}
	}))
	video.SetCacheBudget(video.DefaultCacheBytes)
	pool0 := poolCounters()
	records = append(records, record("RunSetCacheOn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += t.Sys.RunSet(cfg, clips).Runtime
		}
	}))
	cs := video.GlobalCacheStats()
	ps := poolCounters().diff(pool0)
	_ = sink

	rep := PerfReport{
		Dataset: name,
		Clips:   s.Spec.Clips,
		Seconds: s.Spec.ClipSeconds,
		Records: records,
		Cache: PerfCacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			HitRate:   cs.HitRate(),
		},
		Pools: ps,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return fmt.Errorf("bench: writing perf report: %w", err)
	}
	return nil
}
