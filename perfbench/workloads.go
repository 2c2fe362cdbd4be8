package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"prefmatch"
	"prefmatch/internal/dataset"
)

// Shared inputs of every workload (fixed: a change to any of them makes the
// numbers incomparable with earlier runs).
const (
	dim     = dataset.ZillowDim // D = 5
	topK    = 10                // k of every top-k request
	clients = 2                 // closed-loop client goroutines

	liveWriteShare = 0.10 // live_writes: share of operations that are Server.Update
	reaskShare     = 0.30 // session_nudge: share of requests that re-ask unchanged
	nudgeStep      = 0.01 // session_nudge: a nudge sets one weight within ±1% of its opening value
	// zipfS is the Zipf exponent of session popularity in session_nudge:
	// 0.99, YCSB's default request skew (Cooper et al., "Benchmarking Cloud
	// Serving Systems with YCSB", SoCC 2010), for per-record popularity in a
	// serving workload. With it the 20 hottest sessions find their re-asks
	// cached 99% of the time and the coldest half 5% (perfbench/README.md).
	zipfS = 0.99

	// datasetSeed fixes the object set: the inventory a server holds is the
	// same in every run, while every preference, session and write stream
	// derives from --seed. Drawn from --seed too, the inventory alone moved
	// the work per top-k query by ±8% between seeds.
	datasetSeed = 1
)

// config sizes one run. Every workload uses the same values; tests shrink
// them.
type config struct {
	objects  int           // |O|
	sessions int           // sessions open in session_nudge
	waveSize int           // functions per matching wave
	setups   int           // set-ups per run; setup_s and heap report the median
	warmup   time.Duration // closed loop before the timed window, unrecorded
	window   time.Duration // the timed window
	bin      time.Duration // throughput bin; ops_per_s is the median bin rate
	checks   int           // oracle samples taken after the window
	writes   int           // write-probe updates per round; twice this stays below the default merge threshold
	probe    time.Duration // time budget of each per-layer probe
}

func fullConfig(window time.Duration) config {
	return config{
		objects:  100_000,
		sessions: 4096,
		waveSize: 100,
		setups:   11,
		warmup:   time.Second,
		window:   window,
		bin:      time.Second,
		checks:   64,
		writes:   2000,
		probe:    250 * time.Millisecond,
	}
}

// inputs are the run's generated data. The program under test only ever
// receives these objects and the per-client streams drawn from streamSeed.
type inputs struct {
	cfg     config
	seed    int64
	objects []prefmatch.Object // Zillow-like, never mutated
}

func newInputs(cfg config, seed int64) *inputs {
	items := dataset.Zillow(cfg.objects, datasetSeed)
	objs := make([]prefmatch.Object, len(items))
	for i, it := range items {
		objs[i] = prefmatch.Object{ID: int(it.ID), Values: it.Point}
	}
	return &inputs{cfg: cfg, seed: seed, objects: objs}
}

// streamSeed derives an independent random stream per (seed, purpose,
// client), so adding a stream never shifts another one.
func streamSeed(seed int64, purpose string, c int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, purpose, c)
	return int64(h.Sum64() >> 1)
}

func stream(seed int64, purpose string, c int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, purpose, c)))
}

// drawWeights fills w with a fresh linear preference: independent U(0,1]
// weights, which the program normalises to sum to 1.
func drawWeights(rng *rand.Rand, w []float64) {
	for j := range w {
		w[j] = 1 - rng.Float64()
	}
}

// drawWave fills qs with fresh functions, IDs 0..len(qs)-1.
func drawWave(rng *rand.Rand, qs []prefmatch.Query) {
	for i := range qs {
		if len(qs[i].Weights) != dim {
			qs[i].Weights = make([]float64, dim)
		}
		qs[i].ID = i
		drawWeights(rng, qs[i].Weights)
	}
}

// firstWave is the seed's first function set: the first wave client 0 of
// match_wave sends. wave_io is measured on it.
func firstWave(in *inputs) []prefmatch.Query {
	qs := make([]prefmatch.Query, in.cfg.waveSize)
	drawWave(stream(in.seed, "match_wave", 0), qs)
	return qs
}

// instance is one workload's system under test plus the client state the
// closed loop drives it with. Client c only touches its own state, so the
// clients never synchronise outside the program.
type instance interface {
	// start performs everything the program does before the first timed
	// operation (NewServer, OpenSession); setup_s times it.
	start() error
	// op runs client c's next operation and returns whether it was a write
	// and how long its API calls took, recording spans into tr when non-nil.
	op(c int, tr *tracer) (write bool, d time.Duration, err error)
	// check is the workload's oracle, run after the timed window with the
	// clients stopped.
	check() error
	// weights returns n preference vectors as this workload's reads use
	// them, for the per-layer probes.
	weights(n int) [][]float64
	srv() *prefmatch.Server
	// model returns the objects as the program should now hold them.
	model() []prefmatch.Object
	close() error
}

type workload struct {
	name string
	why  string
	make func(in *inputs) instance
}

var workloads = []workload{
	{"topk_cold", "Server.TopK with a fresh weight vector per request: the read path alone, no result cache", newTopkCold},
	{"session_nudge", "4096 Zipf(0.99)-picked sessions re-ask or nudge one weight within 1% of its opening value: the only workload on rescache and re-qualification", newSessionNudge},
	{"live_writes", "reads on the Dynamic backend beside 10% Server.Update calls: delta traversal, tombstones and background merges", func(in *inputs) instance { return newLiveWrites(in, liveWriteShare, "live_writes") }},
	{"match_wave", "Server.Match (SB) with waves of 100 fresh functions: the paper's operation, the only one on core, skyline and ta", newMatchWave},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tamperFunc corrupts an answer before its oracle sees it; tests set it
// (base.setTamper) to prove each oracle rejects a wrong answer.
type tamperFunc func([]prefmatch.Assignment) []prefmatch.Assignment

func (t tamperFunc) apply(a []prefmatch.Assignment) []prefmatch.Assignment {
	if t == nil {
		return a
	}
	return t(a)
}

// base is what every instance holds: its inputs, its server and the
// oracle's test hook. Its start builds the Memory server that topk_cold and
// match_wave serve from.
type base struct {
	in     *inputs
	s      *prefmatch.Server
	tamper tamperFunc
}

func (b *base) start() (err error) {
	b.s, err = prefmatch.NewServer(b.in.objects, &prefmatch.Options{Backend: prefmatch.Memory})
	return err
}

func (b *base) srv() *prefmatch.Server    { return b.s }
func (b *base) model() []prefmatch.Object { return b.in.objects }
func (b *base) close() error              { return b.s.Close() }

func (b *base) setTamper(t tamperFunc) { b.tamper = t }

// readStream is the per-client state of a fresh-weights top-k reader.
type readStream struct {
	rng *rand.Rand
	w   []float64
}

func newReadStreams(in *inputs, purpose string) []readStream {
	rs := make([]readStream, clients)
	for c := range rs {
		rs[c] = readStream{rng: stream(in.seed, purpose, c), w: make([]float64, dim)}
	}
	return rs
}

// freshWeights draws n vectors from a new stream of the same kind the
// readers use.
func freshWeights(in *inputs, purpose string, n int) [][]float64 {
	rng := stream(in.seed, purpose, clients)
	ws := make([][]float64, n)
	for i := range ws {
		ws[i] = make([]float64, dim)
		drawWeights(rng, ws[i])
	}
	return ws
}

// timedTopK is one traced Server.TopK call.
func timedTopK(s *prefmatch.Server, q prefmatch.Query, tr *tracer) ([]prefmatch.Assignment, time.Duration, error) {
	t0 := time.Now()
	res, err := s.TopK(q, topK)
	t1 := time.Now()
	tr.child("server.TopK", t0, t1)
	return res, t1.Sub(t0), err
}

// checkTopKAgainst compares sampled Server.TopK answers with a brute-force
// scan over objs.
func checkTopKAgainst(s *prefmatch.Server, objs []prefmatch.Object, ws [][]float64, tamper tamperFunc) error {
	for i, w := range ws {
		got, err := s.TopK(prefmatch.Query{ID: i, Weights: w}, topK)
		if err != nil {
			return fmt.Errorf("oracle read %d: %w", i, err)
		}
		want, err := bruteTopK(objs, i, w, topK)
		if err != nil {
			return err
		}
		if err := sameAnswer(tamper.apply(got), want); err != nil {
			return fmt.Errorf("oracle read %d: %w", i, err)
		}
	}
	return nil
}

// ---- topk_cold ----

type topkCold struct {
	base
	rs []readStream
}

func newTopkCold(in *inputs) instance {
	return &topkCold{base: base{in: in}, rs: newReadStreams(in, "topk_cold")}
}

func (t *topkCold) op(c int, tr *tracer) (bool, time.Duration, error) {
	r := &t.rs[c]
	drawWeights(r.rng, r.w)
	res, d, err := timedTopK(t.s, prefmatch.Query{ID: c, Weights: r.w}, tr)
	if err == nil && len(res) != topK {
		err = fmt.Errorf("TopK returned %d results, want %d", len(res), topK)
	}
	return false, d, err
}

func (t *topkCold) check() error {
	return checkTopKAgainst(t.s, t.in.objects, freshWeights(t.in, "topk_cold/oracle", t.in.cfg.checks), t.tamper)
}

func (t *topkCold) weights(n int) [][]float64 { return freshWeights(t.in, "topk_cold", n) }

// ---- session_nudge ----

type sessionNudge struct {
	base
	sess   []*prefmatch.Session
	anchor [][]float64 // each session's opening raw weights
	w      [][]float64 // each session's current raw weights, owned by one client
	zipf   zipfTable   // popularity of a client's sessions by rank
	cl     []sessionClient
}

type sessionClient struct {
	rng *rand.Rand
	dst []prefmatch.Assignment
}

func newSessionNudge(in *inputs) instance {
	n := in.cfg.sessions
	sn := &sessionNudge{base: base{in: in}, anchor: make([][]float64, n), w: make([][]float64, n),
		zipf: newZipfTable(n/clients, zipfS), cl: make([]sessionClient, clients)}
	rng := stream(in.seed, "session_nudge/open", 0)
	for i := range sn.w {
		sn.anchor[i] = make([]float64, dim)
		drawWeights(rng, sn.anchor[i])
		sn.w[i] = append([]float64(nil), sn.anchor[i]...)
	}
	for c := range sn.cl {
		sn.cl[c] = sessionClient{rng: stream(in.seed, "session_nudge", c), dst: make([]prefmatch.Assignment, 0, topK)}
	}
	return sn
}

// zipfTable draws ranks 0..n-1 with P(r) ∝ (r+1)^-s, by binary search over
// the cumulative distribution (math/rand's Zipf needs s > 1).
type zipfTable []float64

func newZipfTable(n int, s float64) zipfTable {
	cdf := make(zipfTable, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func (z zipfTable) draw(rng *rand.Rand) int {
	r, _ := slices.BinarySearch(z, rng.Float64())
	return min(r, len(z)-1)
}

func (sn *sessionNudge) start() error {
	if err := sn.base.start(); err != nil {
		return err
	}
	sn.sess = make([]*prefmatch.Session, len(sn.w))
	for i, w := range sn.w {
		var err error
		if sn.sess[i], err = sn.s.OpenSession(prefmatch.Query{ID: i, Weights: w}); err != nil {
			return err
		}
	}
	return nil
}

// next picks client c's next session (Zipf over the sessions it owns) and
// applies the request's revision to the session's weights, reporting
// whether it nudged. A nudge sets one weight to within ±nudgeStep of that
// weight's opening value, not of its current one: nudges never compound, so
// the request stream is the same however far a run gets into it.
func (sn *sessionNudge) next(c int) (int, bool) {
	cl := &sn.cl[c]
	i := sn.zipf.draw(cl.rng)*clients + c
	if cl.rng.Float64() < reaskShare {
		return i, false
	}
	j := cl.rng.Intn(dim)
	sn.w[i][j] = sn.anchor[i][j] * (1 + nudgeStep*(2*cl.rng.Float64()-1))
	return i, true
}

func (sn *sessionNudge) op(c int, tr *tracer) (bool, time.Duration, error) {
	cl := &sn.cl[c]
	i, nudged := sn.next(c)
	sess := sn.sess[i]
	t0 := time.Now()
	if nudged {
		if err := sess.Nudge(sn.w[i]); err != nil {
			return false, 0, err
		}
		tr.child("session.Nudge", t0, time.Now())
	}
	t1 := time.Now()
	res, err := sess.TopKAppend(cl.dst[:0], topK)
	t2 := time.Now()
	tr.child("session.TopKAppend", t1, t2)
	cl.dst = res
	if err == nil && len(res) != topK {
		err = fmt.Errorf("TopKAppend returned %d results, want %d", len(res), topK)
	}
	return false, t2.Sub(t0), err
}

// check replays further requests of the same mix and compares every session
// answer with a cold Server.TopK on the same weights at the same epoch (the
// Memory backend never changes epoch).
func (sn *sessionNudge) check() error {
	for n := 0; n < sn.in.cfg.checks; n++ {
		c := n % clients
		i, nudged := sn.next(c)
		if nudged {
			if err := sn.sess[i].Nudge(sn.w[i]); err != nil {
				return err
			}
		}
		got, err := sn.sess[i].TopK(topK)
		if err != nil {
			return fmt.Errorf("oracle session %d: %w", i, err)
		}
		want, err := sn.s.TopK(prefmatch.Query{ID: i, Weights: sn.w[i]}, topK)
		if err != nil {
			return fmt.Errorf("oracle cold read %d: %w", i, err)
		}
		if err := sameAnswer(sn.tamper.apply(got), want); err != nil {
			return fmt.Errorf("oracle session %d vs cold TopK: %w", i, err)
		}
	}
	return nil
}

// weights samples sessions by the clients' popularity law.
func (sn *sessionNudge) weights(n int) [][]float64 {
	rng := stream(sn.in.seed, "session_nudge/probe", 0)
	ws := make([][]float64, n)
	for i := range ws {
		ws[i] = append([]float64(nil), sn.w[sn.zipf.draw(rng)*clients+rng.Intn(clients)]...)
	}
	return ws
}

// ---- live_writes ----

type liveWrites struct {
	base
	purpose string
	share   float64            // share of operations that are writes
	objs    []prefmatch.Object // the writer's model; client c owns IDs ≡ c mod clients
	rs      []readStream
}

func newLiveWrites(in *inputs, share float64, purpose string) *liveWrites {
	objs := make([]prefmatch.Object, len(in.objects))
	for i, o := range in.objects {
		objs[i] = prefmatch.Object{ID: o.ID, Values: append([]float64(nil), o.Values...)}
	}
	return &liveWrites{base: base{in: in}, purpose: purpose, share: share, objs: objs, rs: newReadStreams(in, purpose)}
}

func (l *liveWrites) start() (err error) {
	l.s, err = prefmatch.NewServer(l.in.objects, &prefmatch.Options{Backend: prefmatch.Dynamic})
	return err
}

func (l *liveWrites) op(c int, tr *tracer) (bool, time.Duration, error) {
	r := &l.rs[c]
	if r.rng.Float64() >= l.share {
		drawWeights(r.rng, r.w)
		res, d, err := timedTopK(l.s, prefmatch.Query{ID: c, Weights: r.w}, tr)
		if err == nil && len(res) != topK {
			err = fmt.Errorf("TopK returned %d results, want %d", len(res), topK)
		}
		return false, d, err
	}
	id := r.rng.Intn(len(l.objs)/clients)*clients + c
	o := l.objs[id]
	o.Values[r.rng.Intn(dim)] = r.rng.Float64()
	t0 := time.Now()
	err := l.s.Update(o)
	t1 := time.Now()
	tr.child("server.Update", t0, t1)
	return true, t1.Sub(t0), err
}

// check runs after the clients stopped: sampled reads must match a
// brute-force scan over the writer's model.
func (l *liveWrites) check() error {
	return checkTopKAgainst(l.s, l.objs, freshWeights(l.in, l.purpose+"/oracle", l.in.cfg.checks), l.tamper)
}

func (l *liveWrites) weights(n int) [][]float64 { return freshWeights(l.in, l.purpose, n) }
func (l *liveWrites) model() []prefmatch.Object { return l.objs }

// ---- match_wave ----

type matchWave struct {
	base
	rngs  []*rand.Rand
	waves [][]prefmatch.Query // per-client wave buffer, refilled per request
}

var sbOptions = &prefmatch.Options{Algorithm: prefmatch.SkylineBased}

func newMatchWave(in *inputs) instance {
	m := &matchWave{base: base{in: in}, rngs: make([]*rand.Rand, clients), waves: make([][]prefmatch.Query, clients)}
	for c := range m.rngs {
		m.rngs[c] = stream(in.seed, "match_wave", c)
		m.waves[c] = make([]prefmatch.Query, in.cfg.waveSize)
	}
	return m
}

func (m *matchWave) op(c int, tr *tracer) (bool, time.Duration, error) {
	qs := m.waves[c]
	drawWave(m.rngs[c], qs)
	t0 := time.Now()
	res, err := m.s.Match(qs, sbOptions)
	t1 := time.Now()
	tr.child("server.Match", t0, t1)
	if err == nil && len(res.Assignments) != len(qs) {
		err = fmt.Errorf("Match returned %d pairs, want %d", len(res.Assignments), len(qs))
	}
	return false, t1.Sub(t0), err
}

// check verifies the seed's first function set and one more fresh wave
// with prefmatch.Verify (stability and completeness).
func (m *matchWave) check() error {
	extra := make([]prefmatch.Query, m.in.cfg.waveSize)
	drawWave(stream(m.in.seed, "match_wave/oracle", 0), extra)
	for i, qs := range [][]prefmatch.Query{firstWave(m.in), extra} {
		res, err := m.s.Match(qs, sbOptions)
		if err != nil {
			return fmt.Errorf("oracle wave %d: %w", i, err)
		}
		if err := checkWave(m.in.objects, qs, m.tamper.apply(res.Assignments)); err != nil {
			return fmt.Errorf("oracle wave %d: %w", i, err)
		}
	}
	return nil
}

func (m *matchWave) weights(n int) [][]float64 {
	rng := stream(m.in.seed, "match_wave", clients)
	qs := make([]prefmatch.Query, n)
	drawWave(rng, qs)
	ws := make([][]float64, n)
	for i := range qs {
		ws[i] = qs[i].Weights
	}
	return ws
}

// checkWave accepts a wave only when every function is matched and the
// matching is stable (prefmatch.Verify).
func checkWave(objs []prefmatch.Object, qs []prefmatch.Query, got []prefmatch.Assignment) error {
	if len(got) != len(qs) {
		return fmt.Errorf("%d pairs for %d functions", len(got), len(qs))
	}
	return prefmatch.Verify(objs, qs, got)
}
