package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"otif/internal/dataset"
	"otif/internal/detect"
	"otif/internal/geom"
	"otif/internal/query"
)

// tinyParams shrinks every workload to a second or two.
func tinyParams() params {
	p := defaultParams()
	p.Spec = dataset.SetSpec{Clips: 2, ClipSeconds: 2}
	p.SetupReps = 1
	p.Seconds = 0.6
	p.Batch = 3
	p.AccBatches = 1
	p.ExtractChecks = 1
	p.ReplayClips = 1
	p.ClipPeriod = 100 * time.Millisecond
	p.IngestRate = 20
	p.IngestChecks = 1
	p.ReplicaClips = 8
	p.SegClips = 3
	p.OpenRate = 40
	p.LayerQueries = 12
	return p
}

func TestSmoke(t *testing.T) {
	for _, w := range []string{"extract", "ingest", "query"} {
		for _, traced := range []bool{false, true} {
			p := tinyParams()
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			r := &report{}
			var err error
			switch w {
			case "extract":
				err = runExtract(p, 3, tr, r)
			case "ingest":
				err = runIngest(p, 3, t.TempDir(), tr, r)
			case "query":
				err = runQuery(p, 3, t.TempDir(), tr, r)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			r.add(kindE2E, "peak_rss_mb", peakRSSMiB(), "MiB", 1, "")
			res, err := finish(r, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w, traced, res.Correct, res.Attempted, res.Failed, r.notes)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value == 0 || math.IsNaN(m.Value) {
						t.Errorf("%s: metric %s = %v", w, name, m.Value)
					}
				}
			}
		}
	}
}

func testTracks(x float64) []*query.Track {
	box := geom.Rect{X: x, Y: 10, W: 20, H: 10}
	return []*query.Track{{
		ID: 1, Category: "car",
		Dets: []detect.Detection{{FrameIdx: 0, Box: box, Score: 0.9, Category: "car"}},
		Path: geom.Path{{X: x + 10, Y: 15}},
	}}
}

func TestMismatchedTrackIsAFailure(t *testing.T) {
	want := extractResult{tracks: testTracks(5), runtime: 1.25}
	r := &report{}
	checkClip(r, "same", want, testTracks(5), 1.25)
	if r.failed != 0 {
		t.Fatalf("identical clip counted %d failures: %v", r.failed, r.notes)
	}
	checkClip(r, "one ulp off", want, testTracks(math.Nextafter(5, 6)), 1.25)
	checkClip(r, "runtime off", want, testTracks(5), math.Nextafter(1.25, 2))
	checkClip(r, "track missing", want, nil, 1.25)
	if r.failed != 3 {
		t.Fatalf("got %d failures, want 3: %v", r.failed, r.notes)
	}
	res, err := finish(withE2E(r), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 3 {
		t.Fatalf("result passed a mismatched track: %+v", res)
	}
}

func TestCorruptedAnswerIsAFailure(t *testing.T) {
	q := request{Kind: "count", Cat: "car"}
	good := []byte(`{"category":"car","per_clip":[1,2],"total":3}`)
	bad := []byte(`{"category":"car","per_clip":[1,2],"total":4}`)
	a := newAnswers()
	a.add(q.key(), http.StatusOK, good)
	a.add(q.key(), http.StatusOK, bad)
	a.add(q.key(), http.StatusOK, good)
	a.add(q.key(), http.StatusServiceUnavailable, good)
	failed, msgs := a.verify(map[string]request{q.key(): q}, func(request) (int, []byte) { return http.StatusOK, good })
	if failed != 2 || len(msgs) != 2 {
		t.Fatalf("got %d failures %v, want 2 (one corrupted body, one non-200)", failed, msgs)
	}
	// A reference that disagrees with every answer fails them all.
	failed, _ = a.verify(map[string]request{q.key(): q}, func(request) (int, []byte) { return http.StatusOK, bad[:10] })
	if failed != 4 {
		t.Fatalf("got %d failures, want 4", failed)
	}
	r := &report{}
	r.attempt(4)
	r.failN(failed, "wrong answers")
	if res, _ := finish(withE2E(r), false); res.Correct {
		t.Fatal("result passed corrupted answers")
	}
}

// withE2E adds placeholder end-to-end metrics so finish accepts r.
func withE2E(r *report) *report {
	for name, unit := range e2eMetrics {
		r.add(kindE2E, name, 1, unit, 1, "")
	}
	if r.attempted == 0 {
		r.attempt(1)
	}
	return r
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.record(0, "outer", 0, 10*time.Millisecond)
	tr.record(outer, "inner", 2*time.Millisecond, 5*time.Millisecond)
	tr.record(outer, "inner", 6*time.Millisecond, 7*time.Millisecond)
	sum := tr.summarize()
	if got := sum["outer"]; got.Calls != 1 || got.Self != 6*time.Millisecond {
		t.Errorf("outer = %+v, want self 6ms", got)
	}
	if got := sum["inner"]; got.Calls != 2 || got.Total != 4*time.Millisecond || got.Self != got.Total {
		t.Errorf("inner = %+v", got)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics the command prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q printed", what, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 2 || names[0] != "extract" || names[1] != "ingest" {
		t.Errorf("workloads %v", names)
	}
}
