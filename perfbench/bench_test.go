package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"prefmatch"
	"prefmatch/internal/index/dynamic"
)

// tinyConfig shrinks every size so a whole run takes about a second.
func tinyConfig() config {
	return config{
		objects:  2000,
		sessions: 64,
		waveSize: 10,
		setups:   2,
		warmup:   50 * time.Millisecond,
		window:   400 * time.Millisecond,
		bin:      200 * time.Millisecond,
		checks:   8,
		writes:   200,
		probe:    10 * time.Millisecond,
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload at tiny size, untraced and
// traced, and checks the last output line: correct, nothing failed, and
// every metric of the run's kind present with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			dir := t.TempDir()
			res, err := execute(tinyConfig(), w, 7, traced, dir, &out)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if err := res.print(&out, dir); err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%t: last line is not the result: %v", w.name, traced, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d (%s)", w.name, traced, last.Correct, last.Attempted, last.Failed, res.Oracle)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want a value in %s", w.name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestWriteProbeBelowMergeThreshold pins the write probe's round size: an
// update of a base object adds a tombstone and a delta object, so a round
// grows the write tier by up to twice its updates, and it must not start a
// background merge.
func TestWriteProbeBelowMergeThreshold(t *testing.T) {
	if w := fullConfig(time.Second).writes; 2*w >= dynamic.DefaultMergeThreshold {
		t.Errorf("write-probe rounds of %d updates can reach the merge threshold %d", w, dynamic.DefaultMergeThreshold)
	}
}

// failingOps fails every tenth operation of the workload it wraps.
type failingOps struct {
	instance
	n int
}

func (f *failingOps) op(c int, tr *tracer) (bool, time.Duration, error) {
	if c == 0 {
		if f.n++; f.n%10 == 0 {
			return false, 0, errors.New("injected failure")
		}
	}
	return f.instance.op(c, tr)
}

func TestFailedOperationsFailTheRun(t *testing.T) {
	w := workload{name: "topk_cold_failing", make: func(in *inputs) instance { return &failingOps{instance: newTopkCold(in)} }}
	var out bytes.Buffer
	res, err := execute(tinyConfig(), w, 7, false, t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Errorf("correct=%t with %d of %d operations failed (%s)", res.Correct, res.Failed, res.Attempted, res.Oracle)
	}
}

// swapFirstTwo exchanges the objects of the first two answers, keeping
// their scores: a plausible-looking wrong answer.
func swapFirstTwo(a []prefmatch.Assignment) []prefmatch.Assignment {
	b := append([]prefmatch.Assignment(nil), a...)
	b[0].ObjectID, b[1].ObjectID = b[1].ObjectID, b[0].ObjectID
	return b
}

func TestOraclesRejectCorruptedAnswers(t *testing.T) {
	in := newInputs(tinyConfig(), 3)
	for _, w := range workloads {
		inst := w.make(in)
		if err := inst.start(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := 0; i < 50; i++ {
			for c := 0; c < clients; c++ {
				if _, _, err := inst.op(c, nil); err != nil {
					t.Fatalf("%s: op: %v", w.name, err)
				}
			}
		}
		if err := inst.check(); err != nil {
			t.Fatalf("%s: oracle rejects a correct run: %v", w.name, err)
		}
		inst.(interface{ setTamper(tamperFunc) }).setTamper(swapFirstTwo)
		if err := inst.check(); err == nil {
			t.Errorf("%s: oracle accepted a corrupted answer", w.name)
		}
		if err := inst.close(); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
	}
}
