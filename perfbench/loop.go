package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// recorder collects one client's measurements in the timed window.
type recorder struct {
	reads, writes   []int32   // API-call latencies, ns
	bins            []float64 // operations completed per bin, split pro rata across bin edges
	attempted, fail int
	firstErr        error
}

func newRecorder(bins, capacity int) *recorder {
	return &recorder{bins: make([]float64, bins+2), reads: make([]int32, 0, capacity)}
}

// add records one operation that ran over [s, e) since the window started.
func (r *recorder) add(write bool, d time.Duration, err error, s, e, bin time.Duration) {
	r.attempted++
	if err != nil {
		r.fail++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	ns := int32(math.MaxInt32)
	if d < math.MaxInt32 {
		ns = int32(d)
	}
	if write {
		r.writes = append(r.writes, ns)
	} else {
		r.reads = append(r.reads, ns)
	}
	b0, b1 := int(s/bin), int(e/bin)
	if b1 >= len(r.bins) {
		b1 = len(r.bins) - 1
	}
	if b0 >= b1 {
		r.bins[b1]++
		return
	}
	span := float64(e - s)
	for b := b0; b <= b1; b++ {
		lo, hi := max(s, time.Duration(b)*bin), min(e, time.Duration(b+1)*bin)
		r.bins[b] += float64(hi-lo) / span
	}
}

// runLoop drives inst with `clients` goroutines for d, each sending its next
// operation only when the previous one returned (a closed loop, like
// service handlers calling the library). recs nil runs unrecorded (warm-up).
// With trs set, operations that start in odd bins are traced.
func runLoop(inst instance, d, bin time.Duration, recs []*recorder, trs []*tracer) {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			now := time.Now()
			for now.Before(end) {
				var tr *tracer
				if trs != nil && int(now.Sub(start)/bin)%2 == 1 {
					tr = trs[c]
				}
				tr.begin()
				write, lat, err := inst.op(c, tr)
				done := time.Now()
				tr.end("request", now, done)
				if recs != nil {
					recs[c].add(write, lat, err, now.Sub(start), done.Sub(start), bin)
				}
				now = done
			}
		}(c)
	}
	wg.Wait()
}

// window summarises the recorders of one timed window.
type window struct {
	reads, writes     []int32   // sorted latencies, ns
	binRates          []float64 // per full bin, operations/s over all clients
	attempted, failed int
	firstErr          error
}

func summarise(recs []*recorder, d, bin time.Duration) window {
	var w window
	full := int(d / bin)
	n := 0
	for _, r := range recs {
		n += len(r.reads)
	}
	w.reads = make([]int32, 0, n)
	w.binRates = make([]float64, full)
	for _, r := range recs {
		w.attempted += r.attempted
		w.failed += r.fail
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
		w.reads = append(w.reads, r.reads...)
		w.writes = append(w.writes, r.writes...)
		for b := 0; b < full; b++ {
			w.binRates[b] += r.bins[b] / bin.Seconds()
		}
	}
	slices.Sort(w.reads)
	slices.Sort(w.writes)
	return w
}

// phaseRate is the median bin rate over the bins with the given parity
// (even bins run untraced, odd bins traced).
func (w window) phaseRate(odd int) float64 {
	var xs []float64
	for b, r := range w.binRates {
		if b%2 == odd {
			xs = append(xs, r)
		}
	}
	return median(xs)
}

// span is one timed call into a layer, kept in memory and written out when
// the run ends. Spans of one request share its root's ID as Parent.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64 // ns since the run's epoch
}

// spanStat aggregates every span of one name, including spans past the
// in-memory cap.
type spanStat struct {
	n          int64
	total, own time.Duration // duration, and duration minus child spans
}

// tracer records the spans of one goroutine. A nil *tracer records
// nothing, so call sites need no branch.
type tracer struct {
	epoch    time.Time
	limit    int
	spans    []span
	dropped  int64
	next     int64
	cur      int64
	children time.Duration
	stats    map[string]*spanStat
}

func newTracer(epoch time.Time, limit int, idBase int64) *tracer {
	return &tracer{epoch: epoch, limit: limit, next: idBase, stats: map[string]*spanStat{}}
}

func (t *tracer) record(id, parent int64, name string, s, e time.Time, own time.Duration) {
	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	st.n++
	st.total += e.Sub(s)
	st.own += own
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s.Sub(t.epoch).Nanoseconds(), End: e.Sub(t.epoch).Nanoseconds()})
	} else {
		t.dropped++
	}
}

// begin opens a request; its child spans point at it.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.next++
	t.cur = t.next
	t.children = 0
}

// child records one layer call inside the open request.
func (t *tracer) child(name string, s, e time.Time) {
	if t == nil {
		return
	}
	t.next++
	t.children += e.Sub(s)
	t.record(t.next, t.cur, name, s, e, e.Sub(s))
}

// end closes the open request as a root span; its own time is the harness
// time outside the layer calls.
func (t *tracer) end(name string, s, e time.Time) {
	if t == nil {
		return
	}
	t.record(t.cur, 0, name, s, e, e.Sub(s)-t.children)
}

// timed records fn as a root span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	t.begin()
	s := time.Now()
	fn()
	e := time.Now()
	t.end(name, s, e)
	return e.Sub(s)
}

// mergeStats sums the span aggregates of several tracers.
func mergeStats(trs []*tracer) map[string]spanStat {
	out := map[string]spanStat{}
	for _, t := range trs {
		for name, st := range t.stats {
			agg := out[name]
			agg.n += st.n
			agg.total += st.total
			agg.own += st.own
			out[name] = agg
		}
	}
	return out
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, trs []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for g, t := range trs {
		for _, s := range t.spans {
			fmt.Fprintf(w, "{\"goroutine\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				g, s.ID, s.Parent, s.Name, s.Start, s.End)
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, "{\"goroutine\":%d,\"dropped_spans\":%d}\n", g, t.dropped)
		}
	}
	return w.Flush()
}
