package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otif/internal/geom"
	"otif/internal/query"
	"otif/internal/store"
)

// request is one /v1/query/* call of the mix, kept with its typed
// parameters so the same call can also be made directly on a Querier.
type request struct {
	Kind    string // count, breakdown, limit or dwell
	Cat     string
	MaxDist float64
	N       int
	Limit   int
	MinSep  float64
	Region  [][2]float64
}

// key identifies the request's exact HTTP form: method, URL and body.
func (q request) key() string {
	m, u, b := q.http()
	return m + " " + u + " " + b
}

func (q request) http() (method, target, body string) {
	v := url.Values{}
	v.Set("category", q.Cat)
	switch q.Kind {
	case "breakdown":
		v.Set("maxdist", fmt.Sprint(q.MaxDist))
	case "limit":
		v.Set("n", fmt.Sprint(q.N))
		v.Set("limit", fmt.Sprint(q.Limit))
		v.Set("minsep", fmt.Sprint(q.MinSep))
	case "dwell":
		b, _ := json.Marshal(map[string]any{"category": q.Cat, "region": q.Region})
		return http.MethodPost, "/v1/query/dwell", string(b)
	}
	return http.MethodGet, "/v1/query/" + q.Kind + "?" + v.Encode(), ""
}

// serve runs the request through h in process and returns the recorded
// answer.
func (q request) serve(h http.Handler) (int, []byte) {
	m, u, b := q.http()
	var body io.Reader
	if b != "" {
		body = strings.NewReader(b)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(m, u, body))
	return rec.Code, rec.Body.Bytes()
}

// direct makes the same query on s without the HTTP layer, the way the
// handlers call the store.
func (q request) direct(s store.Querier, movements []query.Movement) any {
	switch q.Kind {
	case "count":
		return s.CountTracks(q.Cat)
	case "breakdown":
		return s.PathBreakdown(q.Cat, movements, q.MaxDist)
	case "limit":
		return s.LimitQuery(q.Cat, query.CountPredicate{N: q.N}, q.Limit, int(q.MinSep*float64(s.Context().FPS)))
	default:
		region := make(geom.Polygon, len(q.Region))
		for i, p := range q.Region {
			region[i] = geom.Point{X: p[0], Y: p[1]}
		}
		return s.DwellTime(q.Cat, region)
	}
}

var queryKinds = []string{"count", "breakdown", "limit", "dwell"}

// newMix returns the query mix in parts of the given sizes. Each kind has
// a fixed parameter universe in a fixed random order, and the requests of
// every part are fixed Zipf draws over it, so popular requests repeat (and
// hit the store's result cache) and the tail stays distinct. The seed
// orders the requests within each part: every seed sends the same
// requests, so run-to-run differences come from the program and the
// machine rather than from which rare requests a seed happened to draw.
func newMix(seed int64, nomW, nomH int, sizes ...int) []request {
	fixed := rand.New(rand.NewSource(1))
	cats := []string{"car", "bus", ""}
	universe := map[string][]request{}
	for _, c := range cats {
		universe["count"] = append(universe["count"], request{Kind: "count", Cat: c})
		for d := 60; d <= 220; d += 10 {
			universe["breakdown"] = append(universe["breakdown"], request{Kind: "breakdown", Cat: c, MaxDist: float64(d)})
		}
		for nn := 1; nn <= 4; nn++ {
			for _, l := range []int{1, 2, 3, 5} {
				for _, s := range []float64{0, 0.5, 1, 2} {
					universe["limit"] = append(universe["limit"], request{Kind: "limit", Cat: c, N: nn, Limit: l, MinSep: s})
				}
			}
		}
		for i := 0; i < 48; i++ {
			w := 40 + fixed.Intn(nomW/2)
			h := 30 + fixed.Intn(nomH/2)
			x := fixed.Intn(nomW - w)
			y := fixed.Intn(nomH - h)
			r := [][2]float64{{float64(x), float64(y)}, {float64(x + w), float64(y)}, {float64(x + w), float64(y + h)}, {float64(x), float64(y + h)}}
			universe["dwell"] = append(universe["dwell"], request{Kind: "dwell", Cat: c, Region: r})
		}
	}
	zipf := map[string]*rand.Zipf{}
	for _, k := range queryKinds {
		u := universe[k]
		fixed.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
		zipf[k] = rand.NewZipf(fixed, 1.1, 1, uint64(len(u)-1))
	}
	// count, breakdown, limit, dwell. Answers cost count < breakdown < dwell
	// < limit, so these weights put the median latency inside dwell's band
	// (cumulative 40%-75%) rather than on the edge between two kinds.
	weights := []float64{0.25, 0.15, 0.25, 0.35}
	var out []request
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sizes {
		part := make([]request, n)
		for i := range part {
			x, k := fixed.Float64(), 0
			for x >= weights[k] && k < len(weights)-1 {
				x -= weights[k]
				k++
			}
			part[i] = universe[queryKinds[k]][zipf[queryKinds[k]].Uint64()]
		}
		rng.Shuffle(n, func(i, j int) { part[i], part[j] = part[j], part[i] })
		out = append(out, part...)
	}
	return out
}

// repeatShare returns the share of requests whose exact HTTP form appeared
// earlier in the sequence.
func repeatShare(reqs []request) float64 {
	seen := map[string]bool{}
	rep := 0
	for _, q := range reqs {
		k := q.key()
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(max(len(reqs), 1))
}

// answers collects a hash of every response body by request, so each
// distinct body can be checked once against a reference answer without
// keeping the bodies.
type answers struct {
	seed   maphash.Seed
	mu     sync.Mutex
	bodies map[string]map[uint64]int // request key -> body hash -> count
	bad    int                       // answers that were not 200
}

func newAnswers() *answers {
	return &answers{seed: maphash.MakeSeed(), bodies: map[string]map[uint64]int{}}
}

func (a *answers) add(key string, code int, body []byte) {
	h := maphash.Bytes(a.seed, body)
	a.mu.Lock()
	defer a.mu.Unlock()
	if code != http.StatusOK {
		a.bad++
		return
	}
	m := a.bodies[key]
	if m == nil {
		m = map[uint64]int{}
		a.bodies[key] = m
	}
	m[h]++
}

// verify compares every recorded body with ref's answer to the same
// request and returns how many answers were wrong, non-200 ones included,
// with a message per wrong request.
func (a *answers) verify(reqs map[string]request, ref func(request) (int, []byte)) (failed int, msgs []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	failed = a.bad
	if a.bad > 0 {
		msgs = append(msgs, fmt.Sprintf("%d answers were not 200", a.bad))
	}
	for key, bodies := range a.bodies {
		code, body := ref(reqs[key])
		want := maphash.Bytes(a.seed, body)
		for h, n := range bodies {
			if code != http.StatusOK || h != want {
				failed += n
				msgs = append(msgs, fmt.Sprintf("%d answers to %s differ from the single-segment reference", n, key))
			}
		}
	}
	return failed, msgs
}

// loadResult is one load phase's per-request record.
type loadResult struct {
	Latency []float64 // ms; open loop: from the request's due time
	Late    []float64 // ms the generator started a request after its due time
	Done    int
	Elapsed time.Duration
}

// openLoop sends reqs[k] at start + k/rate through h for dur, from at most
// inflight goroutines. A request's latency runs from its due time, so a
// stall also charges the requests queued behind it.
func openLoop(h http.Handler, reqs []request, rate float64, dur time.Duration, inflight int, ans *answers) loadResult {
	n := min(len(reqs), int(rate*dur.Seconds()))
	lat := make([]float64, n)
	late := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := time.Duration(float64(k) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				late[k] = ms(time.Since(start) - due)
				code, body := reqs[k].serve(h)
				lat[k] = ms(time.Since(start) - due)
				if ans != nil {
					ans.add(reqs[k].key(), code, body)
				}
			}
		}()
	}
	wg.Wait()
	return loadResult{Latency: lat, Late: late, Done: n, Elapsed: time.Since(start)}
}

// closedLoop runs clients that each send their next request as soon as the
// previous one is answered, for dur, and returns the completed count.
func closedLoop(h http.Handler, reqs []request, clients int, dur time.Duration, ans *answers) loadResult {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				k := int(next.Add(1)-1) % len(reqs)
				code, body := reqs[k].serve(h)
				if ans != nil {
					ans.add(reqs[k].key(), code, body)
				}
			}
		}()
	}
	wg.Wait()
	done := int(next.Load())
	return loadResult{Done: done, Elapsed: time.Since(start)}
}

// layerPass makes each request twice, serially: directly on st, and
// through h over an identical store with its own result cache. The
// difference between the two is what the HTTP layer adds: routing,
// parameter parsing and JSON encoding.
func layerPass(st store.Querier, h http.Handler, reqs []request, movements []query.Movement, tr *tracer, r *report) {
	for _, q := range reqs {
		id := tr.start(0, "store."+q.Kind)
		q.direct(st, movements)
		tr.end(id)
		id = tr.start(0, "serve."+q.Kind)
		q.serve(h)
		tr.end(id)
	}
	sum := tr.summarize()
	var direct, served time.Duration
	for _, k := range queryKinds {
		a, b := sum["store."+k], sum["serve."+k]
		r.add(kindLayer, "store."+k+"_us", a.selfPer(time.Microsecond), "us", a.Calls, "direct Querier call")
		r.add(kindLayer, "serve."+k+"_us", b.selfPer(time.Microsecond), "us", b.Calls, "Handler().ServeHTTP in process")
		direct += a.Total
		served += b.Total
	}
	r.add(kindLayer, "serve.overhead_frac", float64(served-direct)/float64(max(served, 1)), "ratio", len(reqs), "(serve - store) / serve")
}
