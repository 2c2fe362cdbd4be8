// Command perfbench is prefmatch's benchmark. One process runs one named
// closed-loop workload through the public API on the seed's Zillow-like
// inputs, checks its answers with the workload's oracle, and prints the
// end-to-end metrics (with --trace 1, the per-layer metrics instead) by name
// and unit, ending with one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload topk_cold --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"prefmatch"
)

// artifactDir receives each run's result record and span file, relative to
// the working directory (the checkout root).
const artifactDir = ".bench_build"

// spanLimit caps the spans each goroutine keeps in memory; the per-name
// aggregates still count every span.
const spanLimit = 20_000

// probeRounds is the number of write-probe rounds.
const probeRounds = 8

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: topk_cold, session_nudge, live_writes or match_wave")
	seed := fl.Int64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 25, "length of the timed window")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 2 {
		return fmt.Errorf("--seconds %d: need at least 2", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	res, err := execute(fullConfig(time.Duration(*seconds)*time.Second), w, *seed, *trace == 1, artifactDir, stdout)
	if err != nil {
		return err
	}
	if err := res.print(stdout, artifactDir); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s seed %d is not correct: %s", w.name, *seed, res.Oracle)
	}
	return nil
}

// result is one run's outcome. Metrics holds exactly the metrics of the
// run's kind (end-to-end or per-layer); Samples the sample count behind each
// metric that has one.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Oracle    string             `json:"oracle"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	BinRates  []float64          `json:"bin_rates"` // operations/s per bin of the timed window
	SetupS    []float64          `json:"setup_s_runs"`
	Quantiles map[string]float64 `json:"read_quantiles_us"`
}

// env is recorded with every result so runs on different code or machines
// are never compared by accident.
type env struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Clients    int    `json:"clients"`
	Objects    int    `json:"objects"`
	Window     string `json:"window"`
}

func currentEnv(cfg config) env {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return env{
		Commit:     commit,
		Source:     sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Clients:    clients,
		Objects:    cfg.objects,
		Window:     cfg.window.String(),
	}
}

// sourceDigest hashes the Go sources under root, identifying the code even
// where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
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

// liveHeap is the live heap after two collections (the GC + ReadMemStats
// before/after pattern).
func liveHeap() uint64 {
	runtime.GC()
	time.Sleep(time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// execute performs one run: set-up, warm-up, the timed window, the oracle,
// and the metrics of the run's kind.
func execute(cfg config, w workload, seed int64, traced bool, outDir string, log io.Writer) (*result, error) {
	in := newInputs(cfg, seed)
	res := &result{Workload: w.name, Seed: seed, Trace: traced, Env: currentEnv(cfg),
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	fmt.Fprintf(log, "# perfbench workload=%s seed=%d trace=%t clients=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%.16s\n",
		w.name, seed, traced, clients, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.CPU, res.Env.Commit, res.Env.Source)

	// Set up several times; the last instance serves the run.
	setups := cfg.setups
	if traced {
		setups = 1
	}
	var inst instance
	var setupS, heap []float64
	for i := 0; i < setups; i++ {
		inst = w.make(in)
		h0 := liveHeap()
		t0 := time.Now()
		err := inst.start()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		heap = append(heap, float64(int64(liveHeap())-int64(h0))/float64(cfg.objects))
		if i < setups-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
	}
	// The outcome is decided before Close; its drain error would change
	// nothing reported.
	defer inst.close()

	// Warm up, and size the latency buffers from the warm-up rate.
	warm := []*recorder{newRecorder(int(cfg.warmup/cfg.bin), 0), newRecorder(int(cfg.warmup/cfg.bin), 0)}
	runLoop(inst, cfg.warmup, cfg.bin, warm, nil)
	perClient := int(float64(warm[0].attempted+warm[1].attempted) / clients * cfg.window.Seconds() / cfg.warmup.Seconds() * 1.3)

	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = newRecorder(int(cfg.window/cfg.bin), perClient)
	}
	var trs []*tracer
	var before map[string]float64
	epoch := time.Now()
	if traced {
		for c := range recs {
			trs = append(trs, newTracer(epoch, spanLimit, int64(c+1)<<40))
		}
		var err error
		if before, err = scrape(inst.srv()); err != nil {
			return nil, err
		}
	}
	runLoop(inst, cfg.window, cfg.bin, recs, trs)
	win := summarise(recs, cfg.window, cfg.bin)
	res.Attempted, res.Failed, res.BinRates = win.attempted, win.failed, win.binRates
	res.Quantiles = map[string]float64{}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		res.Quantiles[fmt.Sprint(q)] = quantileUS(win.reads, q)
	}
	if win.failed > 0 {
		fmt.Fprintf(log, "first failure: %v\n", win.firstErr)
	}
	if len(win.reads) == 0 {
		return nil, errors.New("no read completed in the timed window")
	}

	var after map[string]float64
	if traced {
		var err error
		if after, err = scrape(inst.srv()); err != nil {
			return nil, err
		}
	}
	// A failed operation fails the run like a wrong answer: dropped from
	// the latencies and bin rates, it would otherwise make a change that
	// sheds or errors its slow requests look faster.
	switch err := inst.check(); {
	case err != nil:
		res.Oracle = err.Error()
	case win.failed > 0:
		res.Oracle = fmt.Sprintf("answers ok, but %d of %d operations failed in the timed window (first: %v)", win.failed, win.attempted, win.firstErr)
	default:
		res.Correct, res.Oracle = true, fmt.Sprintf("ok (%s)", w.name)
	}

	paged, err := prefmatch.Match(in.objects, firstWave(in), &prefmatch.Options{Backend: prefmatch.Paged})
	if err != nil {
		return nil, fmt.Errorf("wave_io: %w", err)
	}

	if !traced {
		m := res.Metrics
		m["ops_per_s"] = median(win.binRates)
		m["p50_us"] = quantileUS(win.reads, 0.50)
		writes := win.writes
		if len(writes) == 0 {
			if writes, err = writeProbe(in); err != nil {
				return nil, err
			}
		}
		m["write_p50_us"] = quantileUS(writes, 0.50)
		m["write_p99_us"] = quantileUS(writes, 0.99)
		res.SetupS = setupS
		m["setup_s"] = median(setupS)
		m["heap_bytes_per_object"] = median(heap)
		m["wave_io"] = float64(paged.Stats.IOAccesses)
		res.Samples = map[string]int{
			"ops_per_s": len(win.binRates), "p50_us": len(win.reads),
			"write_p50_us": len(writes), "write_p99_us": len(writes),
			"setup_s": len(setupS), "heap_bytes_per_object": len(heap), "wave_io": 1,
		}
		return res, nil
	}

	probeTr := newTracer(epoch, spanLimit, int64(clients+1)<<40)
	lm, err := measureLayers(inst, in, win, before, after, paged.Stats, probeTr)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	trs = append(trs, probeTr)
	reconcile(log, w.name, win, lm, mergeStats(trs))
	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spans, trs); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", spans)
	return res, nil
}

// writeProbe measures Server.Update for a workload without writes: one
// client replays probeRounds rounds of cfg.writes live_writes-style updates
// on a Dynamic server built from the same inputs, each round followed by a
// Compact, and pools the rounds. An update of a base object adds a
// tombstone and a delta object to the write tier, so a round grows it by at
// most 2*cfg.writes, which stays below the default merge threshold: no
// background merge runs during a probe round.
func writeProbe(in *inputs) ([]int32, error) {
	l := newLiveWrites(in, 1, "write_probe")
	if err := l.start(); err != nil {
		return nil, err
	}
	defer l.close()
	lat := make([]int32, 0, probeRounds*in.cfg.writes)
	for r := 0; r < probeRounds; r++ {
		for i := 0; i < in.cfg.writes; i++ {
			_, d, err := l.op(0, nil)
			if err != nil {
				return nil, fmt.Errorf("write probe: %w", err)
			}
			lat = append(lat, int32(min(d, math.MaxInt32)))
		}
		if err := l.s.Compact(); err != nil {
			return nil, fmt.Errorf("write probe: %w", err)
		}
	}
	slices.Sort(lat)
	return lat, nil
}

// reconcile prints how the read operation's mean latency splits into the
// server's stages, and how the traverse stage compares with the raw
// searcher, leaving the unexplained remainder visible.
func reconcile(log io.Writer, name string, win window, lm map[string]float64, spans map[string]spanStat) {
	mean := 0.0
	for _, ns := range win.reads {
		mean += float64(ns)
	}
	mean /= 1e3 * float64(len(win.reads))
	stages := lm["server.stage.validate_us"] + lm["server.stage.pin_us"] + lm["server.stage.traverse_us"] + lm["server.stage.merge_us"]
	fmt.Fprintf(log, "reconcile %s: read mean %.3f us = stages %.3f us (validate %.3f + pin %.3f + traverse %.3f + merge %.3f) + unexplained %.3f us\n",
		name, mean, stages, lm["server.stage.validate_us"], lm["server.stage.pin_us"], lm["server.stage.traverse_us"], lm["server.stage.merge_us"], mean-stages)
	fmt.Fprintf(log, "reconcile %s: traverse %.3f us vs topk.searcher_us %.3f us on a raw mem snapshot: remainder %.3f us\n",
		name, lm["server.stage.traverse_us"], lm["topk.searcher_us"], lm["server.stage.traverse_us"]-lm["topk.searcher_us"])
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := spans[n]
		fmt.Fprintf(log, "span %-28s n=%-9d mean %10.3f us  self %10.3f us\n", n, st.n,
			st.total.Seconds()*1e6/float64(st.n), st.own.Seconds()*1e6/float64(st.n))
	}
}

// print writes the human-readable lines, the result record under dir, and
// finally the one-line JSON result.
func (r *result) print(w io.Writer, dir string) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
		if n, ok := r.Samples[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %-6s n=%d\n", d.Name, v, d.Unit, n)
		} else {
			fmt.Fprintf(w, "%-36s %16.6g %-6s moves: %s\n", d.Name, v, d.Unit, d.Moves)
		}
	}
	fmt.Fprintf(w, "fail_ratio %g (%d failed of %d attempted)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	fmt.Fprintf(w, "oracle: %s\n", r.Oracle)

	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	kind := 0
	if r.Trace {
		kind = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, kind))
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
