// Package guard applies the paper's own discipline — a recovery block with a
// primary routine, alternates, and an acceptance test — to the engine's
// numerical routes. A Block runs its primary attempt, validates the result
// with the acceptance test, and on rejection (or panic, or a typed numerical
// failure) falls through the alternate ladder until an attempt passes. The
// caller gets the accepted value plus the route that produced it, so advice
// built on a fallback can be labelled as such instead of silently blending
// exact and estimated numbers.
//
// Failures are classified into a small typed taxonomy so callers can route on
// them with errors.Is: ErrNumerical (a solver reported an unusable result),
// ErrRejected (the acceptance test refused a computed value), ErrPanic (an
// attempt panicked; the panic is captured, never propagated), and ErrBudget
// (the block's wall-clock budget or the caller's context expired).
//
// Fault injection for the chaos harness rides the context: WithFaults forces
// the first Depth attempts of every block to fail their acceptance test,
// deterministically and without touching global state, so concurrent clean
// and perturbed advisements never contaminate each other. WithRecorder
// collects fallback activations the same way, which is how the scenario
// advisor learns which routes degraded.
//
// The healthy path stays cheap by design: no allocation beyond the Result,
// one context lookup per block, and observability through internal/obs's
// nil-registry fast path (a single atomic load when metrics are off).
package guard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"recoveryblocks/internal/obs"
)

// The error taxonomy. Attempts signal the class of their failure by wrapping
// one of these sentinels (Numericalf is the helper for the common case);
// Block.Do wraps its own verdicts the same way, so errors.Is works at every
// level.
var (
	// ErrNumerical marks a solver failure: non-convergence, NaN/Inf, a
	// parameter outside the routine's numerical range.
	ErrNumerical = errors.New("numerical failure")
	// ErrBudget marks an exhausted budget: the block's wall-clock deadline or
	// the caller's context expired before an attempt was accepted.
	ErrBudget = errors.New("budget exhausted")
	// ErrPanic marks a captured panic. The panic value is in the message; the
	// goroutine that ran the attempt never unwinds past the block.
	ErrPanic = errors.New("panic captured")
	// ErrRejected marks an acceptance-test rejection (including rejections
	// forced by an injected FaultSpec).
	ErrRejected = errors.New("acceptance test rejected result")
	// ErrInvalid marks a structural input error — absorption unreachable, a
	// malformed chain — that no alternate can recover from. An attempt
	// failing with ErrInvalid aborts the ladder immediately instead of
	// burning the remaining rungs on an input that is wrong, not unlucky.
	ErrInvalid = errors.New("unrecoverable input")
)

// Numericalf builds an ErrNumerical-classified error.
func Numericalf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrNumerical)
}

// Rejectedf builds an ErrRejected-classified error, for acceptance tests that
// want to explain the rejection.
func Rejectedf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrRejected)
}

// Invalidf builds an ErrInvalid-classified error, aborting any guard ladder
// the failing attempt runs under.
func Invalidf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInvalid)
}

// Budget bounds a block's execution. The zero value imposes no bound beyond
// the caller's context.
type Budget struct {
	// Wall caps the wall-clock time of the whole block (all attempts
	// together). Zero means no cap. The cap composes with the caller's
	// context: whichever expires first wins.
	Wall time.Duration
}

// Attempt is one route to the block's value: the primary or an alternate.
type Attempt[T any] struct {
	// Name identifies the route in traces, fallback reports and metrics
	// ("kron-renewal", "kron-krylov", "kron-uniformization", "kron-mc", ...).
	Name string
	// Degraded marks estimate-quality routes (last-resort Monte Carlo): a
	// result accepted from a degraded attempt carries estimator noise rather
	// than solver round-off, and advice built on it is labelled "degraded"
	// rather than "fallback".
	Degraded bool
	// Run computes the value. It may fail with a typed error or panic; both
	// are captured and recorded in the trace.
	Run func(ctx context.Context) (T, error)
}

// Block is a recovery block around a numerical value of type T: a primary
// attempt, an ordered ladder of alternates, and an acceptance test that every
// candidate result must pass.
type Block[T any] struct {
	// Name identifies the block in traces, fault matching and fallback
	// reports ("markov/absorption-moments", "rare/router", ...).
	Name       string
	Primary    Attempt[T]
	Alternates []Attempt[T]
	// Accept validates a candidate result; nil accepts everything. A non-nil
	// error rejects the attempt and the block falls through to the next one.
	Accept func(T) error
	Budget Budget
}

// AttemptError is one failed rung of the ladder, kept in the Result trace.
type AttemptError struct {
	Attempt string
	// Forced reports an injected failure (WithFaults): the attempt was
	// rejected without running.
	Forced bool
	Err    error
}

// Result is an accepted value plus its provenance.
type Result[T any] struct {
	Value T
	// Route is the name of the accepted attempt; Attempt its ladder index
	// (0 = primary).
	Route   string
	Attempt int
	// Degraded mirrors the accepted attempt's Degraded flag.
	Degraded bool
	// Trace lists the failed attempts that preceded the accepted one.
	Trace []AttemptError
}

// Do runs the block: each attempt in ladder order, skipping attempts the
// context's FaultSpec forces to fail, until one produces a value the
// acceptance test passes. It returns ErrBudget when the budget or context
// expires mid-ladder, and a trace-bearing error wrapping the last attempt's
// failure when every rung fails.
func (b Block[T]) Do(ctx context.Context) (Result[T], error) {
	var res Result[T]
	reg := obs.Current()
	reg.Counter("guard_blocks_total").Inc()
	if b.Budget.Wall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Budget.Wall)
		defer cancel()
	}
	n := 1 + len(b.Alternates)
	forced := forcedDepth(ctx, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			reg.Counter("guard_budget_exhausted_total").Inc()
			return res, fmt.Errorf("guard %s: %w: %w", b.Name, ErrBudget, err)
		}
		a := b.Primary
		if i > 0 {
			a = b.Alternates[i-1]
		}
		if i < forced {
			reg.Counter("guard_forced_failures_total").Inc()
			reg.Counter("guard_rejects_total").Inc()
			res.Trace = append(res.Trace, AttemptError{
				Attempt: a.Name,
				Forced:  true,
				Err:     fmt.Errorf("injected fault: %w", ErrRejected),
			})
			continue
		}
		v, err := runCaptured(ctx, a)
		if err == nil && b.Accept != nil {
			if aerr := b.Accept(v); aerr != nil {
				reg.Counter("guard_rejects_total").Inc()
				if errors.Is(aerr, ErrRejected) {
					err = aerr
				} else {
					err = fmt.Errorf("%w: %w", ErrRejected, aerr)
				}
			}
		}
		if err != nil {
			res.Trace = append(res.Trace, AttemptError{Attempt: a.Name, Err: err})
			if errors.Is(err, ErrInvalid) {
				reg.Counter("guard_exhausted_total").Inc()
				return res, fmt.Errorf("guard %s: %w", b.Name, err)
			}
			continue
		}
		res.Value, res.Route, res.Attempt, res.Degraded = v, a.Name, i, a.Degraded
		reg.Histogram("guard_fallback_depth").Observe(float64(i))
		if i > 0 {
			reg.Counter("guard_fallbacks_total").Inc()
			record(ctx, Event{Block: b.Name, Route: a.Name, Attempt: i, Degraded: a.Degraded})
		}
		return res, nil
	}
	reg.Counter("guard_exhausted_total").Inc()
	last := res.Trace[len(res.Trace)-1].Err
	return res, fmt.Errorf("guard %s: all %d attempts failed (%s): %w",
		b.Name, n, traceSummary(res.Trace), last)
}

// runCaptured executes one attempt with panic capture: a panicking route
// becomes an ErrPanic-classified failure of that rung, not a crash of the
// block (or the worker pool above it).
func runCaptured[T any](ctx context.Context, a Attempt[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			obs.C("guard_panics_total").Inc()
			var zero T
			v = zero
			err = fmt.Errorf("attempt %s: %w: %v", a.Name, ErrPanic, r)
		}
	}()
	return a.Run(ctx)
}

func traceSummary(trace []AttemptError) string {
	var sb strings.Builder
	for i, t := range trace {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(t.Attempt)
		if t.Forced {
			sb.WriteString(": forced")
		} else {
			sb.WriteString(": ")
			sb.WriteString(t.Err.Error())
		}
	}
	return sb.String()
}

// FaultSpec is an injected failure policy, carried by the context so
// concurrent clean and faulted computations never share state. The chaos
// harness's solver-fault perturbation installs one for perturbed advisements
// only; the CLI's -solver-fault flag installs one for a whole run.
type FaultSpec struct {
	// Depth forces the first min(Depth, attempts−1) rungs of every block to
	// fail their acceptance test without running — the last alternate always
	// stays eligible, so a fully laddered block still produces a (degraded)
	// answer at any injection depth. Zero or negative injects nothing.
	Depth int
	// All forces every rung including the last, exhausting the block — the
	// fault-injection tests use it to exercise quarantine paths that Depth
	// alone can never reach.
	All bool
}

type faultKey struct{}

// WithFaults returns a context carrying the fault policy.
func WithFaults(ctx context.Context, spec FaultSpec) context.Context {
	return context.WithValue(ctx, faultKey{}, spec)
}

// FaultsFrom returns the context's fault policy, if any.
func FaultsFrom(ctx context.Context) (FaultSpec, bool) {
	spec, ok := ctx.Value(faultKey{}).(FaultSpec)
	return spec, ok
}

func forcedDepth(ctx context.Context, n int) int {
	spec, ok := FaultsFrom(ctx)
	if !ok {
		return 0
	}
	if spec.All {
		return n
	}
	if spec.Depth <= 0 {
		return 0
	}
	return min(spec.Depth, n-1)
}

// Event is one recorded fallback activation.
type Event struct {
	Block    string `json:"block"`
	Route    string `json:"route"`
	Attempt  int    `json:"attempt"`
	Degraded bool   `json:"degraded"`
}

// Recorder accumulates fallback activations from every block run under a
// context carrying it (WithRecorder). It is safe for concurrent use; the
// advisor installs one per advisement to label the confidence of its ranking.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

type recorderKey struct{}

// WithRecorder returns a context that routes fallback events into r.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFrom returns the recorder the context routes fallback events into,
// or nil when it carries none.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

func record(ctx context.Context, e Event) {
	r := RecorderFrom(ctx)
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded fallback activations.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded activations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Degraded reports whether any recorded activation accepted a
// degraded-quality route.
func (r *Recorder) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Degraded {
			return true
		}
	}
	return false
}

// Routes returns the distinct "block→route" labels of the recorded
// activations, sorted — the advisor's FallbackRoutes field.
func (r *Recorder) Routes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(r.events))
	var out []string
	for _, e := range r.events {
		s := e.Block + "→" + e.Route
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
