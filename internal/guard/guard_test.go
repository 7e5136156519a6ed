package guard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeEval(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeStates(1 << 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AdmitTuples(1 << 62); err != nil {
		t.Fatal(err)
	}
	g.SetPhase("ignored")
	if g.Phase() != "" {
		t.Fatal("nil guard has no phase")
	}
	if g.Context() == nil {
		t.Fatal("nil guard context must be non-nil")
	}
}

func TestTupleBudget(t *testing.T) {
	g := New(nil, Limits{MaxTuples: 10})
	g.SetPhase("optimize:all")
	if err := g.ChargeEval(10); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	err := g.ChargeEval(1)
	if err == nil {
		t.Fatal("over the limit must fail")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("not a budget error: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("not typed: %v", err)
	}
	if be.Resource != "tuples" || be.Phase != "optimize:all" || be.Spent != 11 || be.Limit != 10 {
		t.Fatalf("wrong fields: %+v", be)
	}
	if !Tripped(err) {
		t.Fatal("budget errors are governance trips")
	}
}

func TestAdmitTuplesChargesNothing(t *testing.T) {
	g := New(nil, Limits{MaxTuples: 10})
	g.SetPhase("execute")
	if err := g.ChargeEval(4); err != nil {
		t.Fatal(err)
	}
	if err := g.AdmitTuples(6); err != nil {
		t.Fatalf("a step that exactly fills the budget: %v", err)
	}
	err := g.AdmitTuples(1 << 62)
	var be *BudgetError
	if !errors.As(err, &be) || !Tripped(err) {
		t.Fatalf("want a typed budget trip, got %v", err)
	}
	if be.Resource != "tuples" || be.Phase != "execute" || be.Spent != 4 || be.Refused != 1<<62 || be.Limit != 10 {
		t.Fatalf("wrong fields: %+v", be)
	}
	if tuples, states, steps := g.Spent(); tuples != 4 || states != 1 || steps != 1 {
		t.Fatalf("admission charged: tuples=%d states=%d steps=%d", tuples, states, steps)
	}
	if err := New(nil, Limits{}).AdmitTuples(1 << 62); err != nil {
		t.Fatalf("unlimited guard refused: %v", err)
	}
}

func TestStateBudgetSharedByEvalAndDP(t *testing.T) {
	g := New(nil, Limits{MaxStates: 3})
	if err := g.ChargeEval(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeStates(2); err != nil {
		t.Fatal(err)
	}
	err := g.ChargeStates(1)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error, got %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	g := New(nil, Limits{MaxSteps: 2})
	if err := g.ChargeEval(0); err != nil {
		t.Fatal(err)
	}
	if err := g.ChargeEval(0); err != nil {
		t.Fatal(err)
	}
	var be *BudgetError
	if err := g.ChargeEval(0); !errors.As(err, &be) || be.Resource != "steps" {
		t.Fatalf("want steps budget error, got %v", err)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	g.SetPhase("prewarm")
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	cancel()
	err := g.Err()
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want CancelError, got %v", err)
	}
	if ce.Phase != "prewarm" || !errors.Is(err, context.Canceled) {
		t.Fatalf("wrong cancel error: %+v", ce)
	}
	if !Tripped(err) {
		t.Fatal("cancellation is a governance trip")
	}
	if err := g.ChargeEval(1); !errors.As(err, &ce) {
		t.Fatalf("charges observe cancellation: %v", err)
	}
}

func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	g := New(ctx, Limits{})
	if err := g.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestTickPollsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(ctx, Limits{})
	var err error
	for i := 0; i < 2*ctxPollInterval && err == nil; i++ {
		err = g.Tick()
	}
	if !Tripped(err) {
		t.Fatalf("ticks must observe cancellation within a poll interval: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	g := New(nil, Limits{FaultStep: 3})
	for i := 0; i < 2; i++ {
		if err := g.ChargeEval(5); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	if err := g.ChargeEval(5); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("want injected fault at step 3, got %v", err)
	}
	// The fault is sticky: later steps keep failing deterministically.
	if err := g.ChargeEval(5); !errors.Is(err, ErrFaultInjected) {
		t.Fatal("fault must persist past its step")
	}
	if !Tripped(ErrFaultInjected) {
		t.Fatal("injected faults are governance trips")
	}

	custom := errors.New("boom")
	g2 := New(nil, Limits{FaultStep: 1, FaultErr: custom})
	if err := g2.ChargeEval(0); !errors.Is(err, custom) {
		t.Fatalf("custom fault error lost: %v", err)
	}
}

func TestSpentLedger(t *testing.T) {
	g := New(nil, Limits{MaxTuples: 5})
	g.ChargeEval(4)
	g.ChargeEval(4) // trips, but still charged
	g.ChargeStates(7)
	tuples, states, steps := g.Spent()
	if tuples != 8 || states != 9 || steps != 2 {
		t.Fatalf("ledger wrong: tuples=%d states=%d steps=%d", tuples, states, steps)
	}
}

func TestAbortTrap(t *testing.T) {
	sentinel := &BudgetError{Resource: "tuples", Spent: 2, Limit: 1}
	err := func() (err error) {
		defer Trap(&err)
		Must(sentinel)
		return nil
	}()
	if err != sentinel {
		t.Fatalf("trap lost the abort error: %v", err)
	}

	// Trap must re-raise foreign panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("foreign panic swallowed by Trap")
			}
		}()
		func() (err error) {
			defer Trap(&err)
			panic("genuine bug")
		}()
	}()
}

func TestProtectConvertsPanics(t *testing.T) {
	err := func() (err error) {
		defer Protect(&err)
		panic(fmt.Sprintf("invariant violated: %d", 42))
	}()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack missing")
	}

	inner := &BudgetError{Resource: "states", Spent: 9, Limit: 8}
	err = func() (err error) {
		defer Protect(&err)
		Abort(inner)
		return nil
	}()
	if err != inner {
		t.Fatalf("protect must unwrap aborts: %v", err)
	}
}

func TestMustNilIsNoOp(t *testing.T) {
	Must(nil) // must not panic
}

// TestSnapshotAtomicity hammers ChargeEval from many goroutines (each
// charge adds exactly one step, one state and one tuple) while snapshots
// are taken concurrently. Every snapshot must be internally consistent —
// equal tuple/state/step spends — which the torn Spent()+Phase() pair
// cannot guarantee and Snapshot must. Run with -race this also checks
// the locking.
func TestSnapshotAtomicity(t *testing.T) {
	g := New(context.Background(), Limits{})
	g.SetPhase("prewarm")
	const workers, perWorker = 8, 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s := g.Snapshot()
			if s.Tuples.Spent != s.States.Spent || s.States.Spent != s.Steps.Spent {
				t.Errorf("torn snapshot: %+v", s)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_ = g.ChargeEval(1)
			}
		}()
	}
	wg.Wait()
	<-done
	s := g.Snapshot()
	if s.Phase != "prewarm" {
		t.Errorf("phase = %q", s.Phase)
	}
	want := int64(workers * perWorker)
	if s.Tuples.Spent != want || s.States.Spent != want || s.Steps.Spent != want {
		t.Errorf("final snapshot = %+v, want %d each", s, want)
	}
}

// TestSnapshotCarriesLimits pins the spent/limit pairing the CLI's
// tripped-run report prints.
func TestSnapshotCarriesLimits(t *testing.T) {
	g := New(context.Background(), Limits{MaxTuples: 10, MaxStates: 20, MaxSteps: 30})
	_ = g.ChargeEval(4)
	s := g.Snapshot()
	if s.Tuples != (Usage{Spent: 4, Limit: 10}) {
		t.Errorf("tuples = %+v", s.Tuples)
	}
	if s.States != (Usage{Spent: 1, Limit: 20}) {
		t.Errorf("states = %+v", s.States)
	}
	if s.Steps != (Usage{Spent: 1, Limit: 30}) {
		t.Errorf("steps = %+v", s.Steps)
	}
	var nilG *Guard
	if nilG.Snapshot() != (Snapshot{}) {
		t.Error("nil guard snapshot not zero")
	}
}

// TestSnapshotCarriesDeadline pins the deadline plumbing the serving
// layer's Retry-After computation reads: a deadline context surfaces in
// the snapshot, Remaining is measured against a caller-supplied clock,
// and deadline-free guards report no deadline.
func TestSnapshotCarriesDeadline(t *testing.T) {
	deadline := time.Now().Add(42 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	g := New(ctx, Limits{MaxTuples: 5})
	s := g.Snapshot()
	if !s.HasDeadline || !s.Deadline.Equal(deadline) {
		t.Fatalf("snapshot deadline = (%v, %v), want (%v, true)", s.Deadline, s.HasDeadline, deadline)
	}
	now := deadline.Add(-10 * time.Second)
	if rem, ok := s.Remaining(now); !ok || rem != 10*time.Second {
		t.Fatalf("Remaining = (%v, %v), want (10s, true)", rem, ok)
	}
	// Past the deadline, Remaining goes negative rather than clamping:
	// the caller decides how to render an expired budget.
	if rem, ok := s.Remaining(deadline.Add(time.Second)); !ok || rem >= 0 {
		t.Fatalf("Remaining past deadline = (%v, %v), want negative", rem, ok)
	}

	free := New(context.Background(), Limits{})
	if s := free.Snapshot(); s.HasDeadline {
		t.Fatalf("deadline-free guard reports a deadline: %+v", s)
	}
	if _, ok := free.Snapshot().Remaining(time.Now()); ok {
		t.Fatal("Remaining ok on a deadline-free guard")
	}
}

// TestSnapshotDeadlineRaceFree snapshots concurrently with budget trips;
// -race verifies the deadline read shares the ledger's synchronization.
func TestSnapshotDeadlineRaceFree(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	g := New(ctx, Limits{MaxTuples: 100})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = g.ChargeEval(3) // trips past 100 and keeps charging
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s := g.Snapshot()
		if !s.HasDeadline {
			t.Fatal("deadline lost under concurrent trips")
		}
	}
	wg.Wait()
}

func TestRecoveredConvertsPanicValues(t *testing.T) {
	if err := Recovered(nil); err != nil {
		t.Errorf("Recovered(nil) = %v, want nil", err)
	}

	// An Abort unwinds into its original error, matching Trap/Protect.
	want := &BudgetError{Resource: "tuples", Spent: 2, Limit: 1}
	var got error
	func() {
		defer func() { got = Recovered(recover()) }()
		Abort(want)
	}()
	if got != want {
		t.Errorf("Recovered(Abort(err)) = %v, want the aborted error", got)
	}
	if !errors.Is(got, ErrBudgetExceeded) {
		t.Error("recovered abort lost its errors.Is identity")
	}

	// Any other panic becomes a *PanicError carrying value and stack —
	// the goroutine-boundary contract the prewarm workers rely on.
	func() {
		defer func() { got = Recovered(recover()) }()
		panic("worker invariant broken")
	}()
	var pe *PanicError
	if !errors.As(got, &pe) {
		t.Fatalf("Recovered(panic) = %T, want *PanicError", got)
	}
	if pe.Value != "worker invariant broken" || len(pe.Stack) == 0 {
		t.Errorf("PanicError lost value or stack: %+v", pe)
	}
}
