package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// chain builds a three-rung block over int: primary → alt → last (degraded),
// with an acceptance test rejecting negative values.
func chain(primary, alt, last func(context.Context) (int, error)) Block[int] {
	return Block[int]{
		Name:    "test/chain",
		Primary: Attempt[int]{Name: "primary", Run: primary},
		Alternates: []Attempt[int]{
			{Name: "alt", Run: alt},
			{Name: "last", Degraded: true, Run: last},
		},
		Accept: func(v int) error {
			if v < 0 {
				return Rejectedf("negative value %d", v)
			}
			return nil
		},
	}
}

func ok(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

func TestHealthyPathUsesPrimary(t *testing.T) {
	res, err := chain(ok(1), ok(2), ok(3)).Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Value != 1 || res.Route != "primary" || res.Attempt != 0 || res.Degraded {
		t.Fatalf("healthy result = %+v, want primary value 1", res)
	}
	if len(res.Trace) != 0 {
		t.Fatalf("healthy trace = %v, want empty", res.Trace)
	}
}

func TestRejectionFallsThrough(t *testing.T) {
	res, err := chain(ok(-1), ok(2), ok(3)).Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Value != 2 || res.Route != "alt" || res.Attempt != 1 {
		t.Fatalf("result = %+v, want alt value 2", res)
	}
	if len(res.Trace) != 1 || !errors.Is(res.Trace[0].Err, ErrRejected) {
		t.Fatalf("trace = %v, want one ErrRejected entry", res.Trace)
	}
}

func TestTypedErrorFallsThrough(t *testing.T) {
	numerical := func(context.Context) (int, error) { return 0, Numericalf("did not converge") }
	res, err := chain(numerical, ok(2), ok(3)).Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Route != "alt" || !errors.Is(res.Trace[0].Err, ErrNumerical) {
		t.Fatalf("result = %+v, want alt after ErrNumerical", res)
	}
}

func TestPanicCapturedAsTypedError(t *testing.T) {
	boom := func(context.Context) (int, error) { panic("solver exploded") }
	res, err := chain(boom, ok(2), ok(3)).Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Route != "alt" {
		t.Fatalf("route = %q, want alt", res.Route)
	}
	if !errors.Is(res.Trace[0].Err, ErrPanic) || !strings.Contains(res.Trace[0].Err.Error(), "solver exploded") {
		t.Fatalf("trace err = %v, want ErrPanic carrying the panic value", res.Trace[0].Err)
	}
}

func TestAllAttemptsFail(t *testing.T) {
	_, err := chain(ok(-1), ok(-2), ok(-3)).Do(context.Background())
	if err == nil {
		t.Fatal("want error when every rung fails")
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected classification", err)
	}
	for _, name := range []string{"primary", "alt", "last"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("err %q does not name rung %s", err, name)
		}
	}
}

func TestDegradedRouteMarksResult(t *testing.T) {
	res, err := chain(ok(-1), ok(-2), ok(3)).Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Route != "last" || !res.Degraded || res.Attempt != 2 {
		t.Fatalf("result = %+v, want degraded last rung", res)
	}
}

func TestForcedDepthSkipsRungsDeterministically(t *testing.T) {
	ran := 0
	primary := func(context.Context) (int, error) { ran++; return 1, nil }
	ctx := WithFaults(context.Background(), FaultSpec{Depth: 1})
	res, err := chain(primary, ok(2), ok(3)).Do(ctx)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if ran != 0 {
		t.Fatalf("forced primary ran %d times, want 0", ran)
	}
	if res.Route != "alt" || !res.Trace[0].Forced || !errors.Is(res.Trace[0].Err, ErrRejected) {
		t.Fatalf("result = %+v, want forced primary rejection then alt", res)
	}
}

func TestForcedDepthNeverExhaustsLadder(t *testing.T) {
	// Any finite depth — even far past the ladder length — leaves the last
	// alternate eligible, so max-magnitude injection still yields an answer.
	ctx := WithFaults(context.Background(), FaultSpec{Depth: 99})
	res, err := chain(ok(1), ok(2), ok(3)).Do(ctx)
	if err != nil {
		t.Fatalf("Do under depth 99: %v", err)
	}
	if res.Value != 3 || res.Route != "last" || !res.Degraded {
		t.Fatalf("result = %+v, want last rung under saturating depth", res)
	}
}

func TestForceAllExhaustsLadder(t *testing.T) {
	ctx := WithFaults(context.Background(), FaultSpec{All: true})
	_, err := chain(ok(1), ok(2), ok(3)).Do(ctx)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected from full exhaustion", err)
	}
}

func TestWallBudgetExpires(t *testing.T) {
	slow := func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 1, nil
		}
	}
	b := chain(slow, ok(2), ok(3))
	b.Budget = Budget{Wall: 5 * time.Millisecond}
	_, err := b.Do(context.Background())
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrBudget wrapping DeadlineExceeded", err)
	}
}

func TestCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := chain(ok(1), ok(2), ok(3)).Do(ctx)
	if !errors.Is(err, ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping Canceled", err)
	}
}

func TestRecorderCollectsFallbacks(t *testing.T) {
	rec := &Recorder{}
	ctx := WithRecorder(context.Background(), rec)

	// Healthy block: no events.
	if _, err := chain(ok(1), ok(2), ok(3)).Do(ctx); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if ev := rec.Events(); len(ev) != 0 {
		t.Fatalf("healthy block recorded %v, want nothing", ev)
	}

	// Exact-quality fallback, then a degraded one.
	if _, err := chain(ok(-1), ok(2), ok(3)).Do(ctx); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if rec.Degraded() {
		t.Fatal("exact-quality fallback flagged degraded")
	}
	if _, err := chain(ok(-1), ok(-2), ok(3)).Do(ctx); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !rec.Degraded() {
		t.Fatal("degraded fallback not flagged")
	}
	routes := rec.Routes()
	want := []string{"test/chain→alt", "test/chain→last"}
	if len(routes) != 2 || routes[0] != want[0] || routes[1] != want[1] {
		t.Fatalf("routes = %v, want %v", routes, want)
	}
}

func TestInvalidInputAbortsLadder(t *testing.T) {
	altRan := false
	invalid := func(context.Context) (int, error) { return 0, Invalidf("absorption unreachable") }
	spy := func(context.Context) (int, error) { altRan = true; return 2, nil }
	_, err := chain(invalid, spy, spy).Do(context.Background())
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	if altRan {
		t.Fatal("alternates ran after a structural input error")
	}
}

func TestNilAcceptAcceptsEverything(t *testing.T) {
	b := Block[int]{
		Name:    "test/noaccept",
		Primary: Attempt[int]{Name: "p", Run: ok(-5)},
	}
	res, err := b.Do(context.Background())
	if err != nil || res.Value != -5 {
		t.Fatalf("res = %+v err = %v, want -5 accepted", res, err)
	}
}
