// Command perfbench is the repository's benchmark. It trains and tunes the
// program on caldot1 as the command-line tools do, then runs one workload
// against it and checks the outputs:
//
//	extract  batch extraction of camera clips the process has never seen
//	ingest   streaming ingest into the live store while queries run
//	query    a read-only replica booted from exported segments
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times each layer from outside, through spans around the calls into the
// layer's public functions, and writes the spans to a file. The last line
// of standard output is one JSON object with the result. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricKind int

const (
	kindE2E   metricKind = iota // printed in the result with --trace 0
	kindLayer                   // printed in the result with --trace 1
	kindInfo                    // report lines only
)

// e2eMetrics and layerMetrics name every metric the result line carries;
// BENCHMARK.json lists the same names (a test pins that).
var e2eMetrics = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MiB",
	"throughput":  "1/s",
	"p50_ms":      "ms",
	"accuracy":    "ratio",
}

var layerMetrics = map[string]string{
	"dataset.build_s":           "s",
	"tuner.select_best_s":       "s",
	"core.finish_training_s":    "s",
	"tuner.tune_s":              "s",
	"video.cache_hit_ratio":     "ratio",
	"video.run_cache_hit_ratio": "ratio",
	"persist.export_s":          "s",
	"persist.open_s":            "s",
	"vidsim.render_ms":          "ms",
	"video.read_ms":             "ms",
	"proxy.score_ms":            "ms",
	"proxy.threshold_us":        "us",
	"proxy.group_us":            "us",
	"proxy.area_frac":           "ratio",
	"detect.ms":                 "ms",
	"detect.dets_per_frame":     "count",
	"track.update_us":           "us",
	"track.finish_us":           "us",
	"core.query_tracks_us":      "us",
	"core.clip_ms":              "ms",
	"core.unattributed_frac":    "ratio",
	"core.parallel_eff":         "ratio",
	"trace.overhead_frac":       "ratio",
	"ingest.late_ms":            "ms",
	"ingest.queue_wait_ms":      "ms",
	"ingest.service_ms":         "ms",
	"ingest.queue_depth":        "count",
	"store.live_append_us":      "us",
	"store.count_us":            "us",
	"store.breakdown_us":        "us",
	"store.limit_us":            "us",
	"store.dwell_us":            "us",
	"store.cache_hit_ratio":     "ratio",
	"store.cache_dedup":         "count",
	"serve.count_us":            "us",
	"serve.breakdown_us":        "us",
	"serve.limit_us":            "us",
	"serve.dwell_us":            "us",
	"serve.overhead_frac":       "ratio",
}

type metric struct {
	Kind  metricKind
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value
	Note  string
}

// report gathers one run's metrics and correctness checks.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	notes     []string
}

func (r *report) add(kind metricKind, name string, v float64, unit string, n int, note string, args ...any) {
	r.metrics = append(r.metrics, metric{kind, name, v, unit, n, fmt.Sprintf(note, args...)})
}

func (r *report) attempt(n int) { r.attempted += n }

// fail counts one failed operation.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations; n <= 0 records nothing.
func (r *report) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.note("FAIL: " + fmt.Sprintf(format, args...))
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

// reportSetup reports setup_s as the median over set-up repetitions of
// build + train + tune (plus extra, the segment export and open, when
// given) and, in a traced run, each phase's median.
func reportSetup(r *report, setups []setupTimes, extra []time.Duration, traced bool) {
	var total, build, sel, fin, tune, hit []float64
	for i, st := range setups {
		t := st.total()
		if extra != nil {
			t += extra[i]
		}
		total = append(total, t.Seconds())
		build = append(build, st.Build.Seconds())
		sel = append(sel, st.SelectBest.Seconds())
		fin = append(fin, st.Finish.Seconds())
		tune = append(tune, st.Tune.Seconds())
		hit = append(hit, st.Cache.HitRate())
	}
	r.add(kindE2E, "setup_s", median(total), "s", len(total), "median over set-ups")
	if !traced {
		return
	}
	r.add(kindLayer, "dataset.build_s", median(build), "s", len(build), "dataset.Build + core.NewSystem")
	r.add(kindLayer, "tuner.select_best_s", median(sel), "s", len(sel), "")
	r.add(kindLayer, "core.finish_training_s", median(fin), "s", len(fin), "")
	r.add(kindLayer, "tuner.tune_s", median(tune), "s", len(tune), "tuner.Tune + PickFastestWithin")
	r.add(kindLayer, "video.cache_hit_ratio", median(hit), "ratio", len(hit), "frame cache over one set-up")
}

// env stamps the machine and toolchain a report was measured on.
func env(seed int64, seconds float64, commit string) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
		"seconds":    seconds,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish turns a report into the result line, with every metric of the
// selected kind. A traced run reports a layer the workload leaves idle as
// 0. A missing end-to-end metric is an error.
func finish(r *report, traced bool) (result, error) {
	want, kind := e2eMetrics, kindE2E
	if traced {
		want, kind = layerMetrics, kindLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		if m.Kind == kind {
			if want[m.Name] != m.Unit {
				return res, fmt.Errorf("metric %s has unit %q, want %q", m.Name, m.Unit, want[m.Name])
			}
			res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	for name, unit := range want {
		if _, ok := res.Metrics[name]; !ok {
			if !traced {
				return res, fmt.Errorf("metric %s not measured", name)
			}
			res.Metrics[name] = metricValue{0, unit}
		}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

// printReport writes the human-readable report: every metric by name
// with unit and sample count, then the notes.
func printReport(w *bufio.Writer, r *report, traced bool) {
	sort.SliceStable(r.metrics, func(i, j int) bool { return r.metrics[i].Kind < r.metrics[j].Kind })
	for _, m := range r.metrics {
		if (m.Kind == kindLayer) != traced && m.Kind != kindInfo {
			continue
		}
		fmt.Fprintf(w, "%-30s %14.6g %-8s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "extract, ingest or query")
	seed := flag.Int64("seed", 1, "workload seed: selects the camera feeds and the query mix")
	seconds := flag.Float64("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: time each layer and write a span file instead of end-to-end metrics")
	out := flag.String("out", ".bench_out", "directory for span files and scratch segments")
	commit := flag.String("commit", "unknown", "commit the program was built from, for the report")
	flag.Parse()

	p := defaultParams()
	p.Seconds = *seconds
	err := runWorkload(*workload, p, *seed, *trace == 1, *out, *commit)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFailed):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	default:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
}

// errFailed reports that a correctness check failed; the result line has
// been printed.
var errFailed = errors.New("correctness check failed")

func runWorkload(name string, p params, seed int64, traced bool, outDir, commit string) error {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	stamp, _ := json.Marshal(map[string]any{"workload": name, "trace": traced, "env": env(seed, p.Seconds, commit)})
	fmt.Fprintf(w, "%s\n", stamp)

	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &report{}
	var err error
	switch name {
	case "extract":
		err = runExtract(p, seed, tr, r)
	case "ingest":
		err = runIngest(p, seed, tmp, tr, r)
	case "query":
		err = runQuery(p, seed, tmp, tr, r)
	default:
		err = fmt.Errorf("unknown workload %q (want extract, ingest or query)", name)
	}
	if err != nil {
		return err
	}
	r.add(kindE2E, "peak_rss_mb", peakRSSMiB(), "MiB", 1, "peak resident set of the whole run")
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
		if err := writeSpans(tr, path); err != nil {
			return err
		}
		r.note("spans: " + path)
	}
	res, err := finish(r, traced)
	if err != nil {
		return err
	}
	printReport(w, r, traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return errFailed
	}
	return nil
}

func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
