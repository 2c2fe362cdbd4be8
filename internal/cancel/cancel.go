// Package cancel carries request deadlines and cancellation into the
// serving engines without putting context.Context — or any allocation —
// on the hot path.
//
// A Token is a two-word value wrapping a context's done channel. The
// engines (topk.Searcher, topk.BatchSearcher, skyline.Maintainer, the
// matching-wave loop, the sharded fan-out workers) call Check at natural
// amortization points — around each node read, once per emitted pair, once per stream refill,
// and once before a request hands its result back — so a request that has
// been canceled or has blown its deadline stops within roughly one node
// expansion instead of running to completion. Check on a live token is one non-blocking select on a
// channel that is already in the caller's cache line; Check on the zero
// Token is a nil comparison. Neither allocates. Only the cancellation
// path itself — taken once per canceled request — allocates the *Error
// that names the stage which observed the cancellation.
//
// The zero Token never cancels, so every engine entry point can accept a
// Token unconditionally and the non-context public API passes Token{}
// at zero cost.
package cancel

import "context"

// Token is the cooperative cancellation handle threaded through the
// engines. The zero Token never cancels. Tokens are values: copy them
// freely, never compare them.
type Token struct {
	done <-chan struct{}
	ctx  context.Context
}

// FromContext derives a Token from ctx. Contexts that can never be
// canceled (context.Background, context.TODO, nil) yield the zero Token,
// so downstream checkpoints cost a single nil comparison.
func FromContext(ctx context.Context) Token {
	if ctx == nil {
		return Token{}
	}
	done := ctx.Done()
	if done == nil {
		return Token{}
	}
	return Token{done: done, ctx: ctx}
}

// Live reports whether the token can ever cancel. Workers use it to skip
// arming per-iteration checks when the request carries no deadline.
func (t Token) Live() bool { return t.done != nil }

// Check returns nil while the request is live, and a *Error naming stage
// once the underlying context is canceled or past its deadline. It never
// blocks and allocates only on the cancellation path.
func (t Token) Check(stage string) error {
	if t.done == nil {
		return nil
	}
	select {
	case <-t.done:
		return &Error{Stage: stage, cause: context.Cause(t.ctx)}
	default:
		return nil
	}
}

// Err returns the cancellation error for stage unconditionally; callers
// use it after an external signal (a select on Done elsewhere) already
// observed the cancellation.
func (t Token) Err(stage string) error {
	if t.ctx == nil {
		return &Error{Stage: stage, cause: context.Canceled}
	}
	return &Error{Stage: stage, cause: context.Cause(t.ctx)}
}

// Done exposes the underlying done channel (nil for the zero Token) so
// admission gates can select on it alongside their own timers.
func (t Token) Done() <-chan struct{} { return t.done }

// Error is the stage-tagged cancellation error. It unwraps to the
// context's cause — context.Canceled or context.DeadlineExceeded — so
// errors.Is(err, context.DeadlineExceeded) works through any wrapping.
type Error struct {
	// Stage names the checkpoint that observed the cancellation, e.g.
	// "topk.traverse" or "wave.next".
	Stage string
	cause error
}

func (e *Error) Error() string {
	c := e.cause
	if c == nil {
		c = context.Canceled
	}
	return "prefmatch: request abandoned at " + e.Stage + ": " + c.Error()
}

func (e *Error) Unwrap() error {
	if e.cause == nil {
		return context.Canceled
	}
	return e.cause
}
