package prefmatch

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"prefmatch/internal/cancel"
	"prefmatch/internal/guard"
)

// This file is the Server's production-hardening layer: the admission gate
// every request passes before touching shared plumbing, the per-request
// panic/cancellation classifier, and the Close lifecycle that turns the
// server off in order — refuse, drain, quiesce merges, compact, stop admin.

// Server lifecycle states, advanced monotonically by Close.
const (
	stateServing int32 = iota
	stateDraining
	stateClosed
)

// defaultDrainTimeout bounds Close's drain when Options.DrainTimeout is 0.
const defaultDrainTimeout = 5 * time.Second

// admit is the single admission gate every public request passes before any
// shared plumbing is touched (scratch, snapshots, the write lock) — which
// is exactly what makes "shed requests never touch a snapshot" true. It
// refuses requests once Close has begun (ErrClosed), honours an
// already-canceled context, and, when Options.MaxInFlight is set, takes a
// gate slot — waiting at most Options.MaxQueueWait before shedding with
// ErrOverloaded, and aborting the wait if the request's context or the
// server's shutdown fires first. The uncontended path is three atomics and
// a channel send: no timer, no allocation.
func (s *Server) admit(tok cancel.Token) error {
	if s.state.Load() != stateServing {
		return ErrClosed
	}
	if err := tok.Check("admission"); err != nil {
		// Counted here, not in finishReq: admission failures return before
		// the request's classifier is deferred, and pm_canceled_total must
		// still see callers that hung up before the request started.
		s.om.canceled.Inc()
		return err
	}
	s.inflight.Add(1)
	// Re-check after joining the in-flight count: Close stores the
	// draining state and then reads inflight, so a request is either seen
	// by the drain loop or bounced here — never silently lost.
	if s.state.Load() != stateServing {
		s.inflight.Add(-1)
		return ErrClosed
	}
	if s.gate == nil {
		return nil
	}
	select {
	case s.gate <- struct{}{}:
		return nil
	default:
	}
	if s.maxWait <= 0 {
		s.inflight.Add(-1)
		s.om.noteShed()
		return ErrOverloaded
	}
	timer := time.NewTimer(s.maxWait)
	defer timer.Stop()
	select {
	case s.gate <- struct{}{}:
		return nil
	case <-timer.C:
		s.inflight.Add(-1)
		s.om.noteShed()
		return ErrOverloaded
	case <-s.closing:
		s.inflight.Add(-1)
		return ErrClosed
	case <-tok.Done():
		s.inflight.Add(-1)
		s.om.canceled.Inc()
		return tok.Err("admission")
	}
}

// exitRequest releases what admit took: the gate slot and the in-flight
// count. Deferred by every admitted request, after finishReq in LIFO order,
// so the panic conversion runs while the request still counts as in flight.
func (s *Server) exitRequest() {
	if s.gate != nil {
		<-s.gate
	}
	s.inflight.Add(-1)
}

// finishReq is deferred by every admitted request, inside exitRequest: it
// converts an in-flight panic on the calling goroutine into the request's
// error (worker-goroutine panics were already converted by the fan-out's
// guard and arrive as ordinary errors), then classifies the final error —
// panics into pm_panics_total and the slow-query log, cancellations into
// pm_canceled_total. qid is the request's representative query ID (the
// first of a batch; -1 when the request has none), naming the offending
// query in the panic log line. The no-error path returns after one recover
// call and a nil check.
func (s *Server) finishReq(op serverOp, qid int, errp *error) {
	if r := recover(); r != nil {
		*errp = &guard.PanicError{Val: r, Stack: debug.Stack()}
	}
	err := *errp
	if err == nil {
		return
	}
	var pe *guard.PanicError
	if errors.As(err, &pe) {
		s.om.notePanic(op, qid, pe)
		return
	}
	var ce *cancel.Error
	if errors.As(err, &ce) {
		s.om.canceled.Inc()
	}
}

// handBack is a read request's last checkpoint, run once its traversal has
// returned err and before the result is recorded and handed back. The
// contract: a request whose deadline passes before it returns reports
// ErrDeadlineExceeded (ErrCanceled for a canceled context), even when every
// traversal checkpoint ran in time — e.g. a slow last node read that
// started inside the deadline and finished outside it.
func handBack(tok cancel.Token, err error) error {
	if err != nil {
		return err
	}
	return tok.Check("request.return")
}

// degradedReason reports why the server is degraded ("" when healthy):
// the admission gate is saturated right now, or requests were shed in the
// trailing window. /healthz stays 200 on degraded — it is load, not
// brokenness — but names the reason so operators see it before it becomes
// shed traffic.
func (s *Server) degradedReason() string {
	if s.gate != nil && len(s.gate) == cap(s.gate) {
		return "admission gate saturated"
	}
	if s.om.shedMeter.Rate(10*time.Second) > 0 {
		return "shedding load"
	}
	return ""
}

// Close shuts the server down as a real lifecycle, in order:
//
//  1. refuse — the state flips to draining; every new request (and every
//     waiter queued on the admission gate) fails with ErrClosed;
//  2. drain — Close waits up to Options.DrainTimeout (default 5s) for
//     in-flight requests to finish;
//  3. quiesce — on a Dynamic backend the merge policy is stopped and any
//     in-flight background merge is given the remaining bound to settle;
//  4. compact — if the quiesce succeeded and a write tier is resident, a
//     final synchronous Compact folds it into the base arena, so the
//     stopped index is fully packed;
//  5. stop admin — the admin HTTP server (if any) is closed last, so
//     /healthz reports "draining" for the whole drain window.
//
// Close is idempotent and safe without an admin server: every call returns
// the first call's error. It never blocks past the drain bound plus the
// merge bound; requests still running past the bound are reported in the
// returned error but not interrupted (pass them a context to make them
// interruptible).
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.doClose() })
	return s.closeErr
}

func (s *Server) doClose() error {
	s.state.Store(stateDraining)
	close(s.closing)
	bound := s.drainBound
	if bound <= 0 {
		bound = defaultDrainTimeout
	}
	deadline := time.Now().Add(bound)
	var errs []error
	for s.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			errs = append(errs, fmt.Errorf("prefmatch: close: %d requests still in flight after %v drain bound", s.inflight.Load(), bound))
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Mark every open session closed and drop the registry references, so
	// a session's next call fails fast with ErrSessionClosed. Sessions hold
	// no snapshot, so there is nothing else to release. The state already
	// reads draining here, which is what makes the OpenSession race safe:
	// a racing open either observed the flip under sessMu and refused, or
	// registered before this sweep and is swept.
	s.sessMu.Lock()
	for sess := range s.sessions {
		sess.closed.Store(true)
		delete(s.sessions, sess)
	}
	s.sessMu.Unlock()
	// Quiesce the write tier: stop the merge policy, give an in-flight
	// merge the rest of the bound, and fold a resident delta in — the
	// final Compact the interval trigger alone would never run on an
	// idle index (see dynamic.Options.MergeInterval).
	if sd, ok := s.ix.(interface{ Shutdown(time.Duration) error }); ok {
		remaining := time.Until(deadline)
		if remaining < 0 {
			remaining = 0
		}
		if err := sd.Shutdown(remaining); err != nil {
			errs = append(errs, fmt.Errorf("prefmatch: close: %w", err))
		} else if d, ok := s.ix.(interface{ DeltaSize() int }); ok && d.DeltaSize() > 0 {
			if c, ok := s.ix.(interface{ Compact() }); ok {
				s.wmu.Lock()
				c.Compact()
				s.wmu.Unlock()
			}
		}
	}
	s.state.Store(stateClosed)
	if err := s.stopAdmin(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
