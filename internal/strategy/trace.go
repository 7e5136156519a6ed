package strategy

import (
	"fmt"
	"strings"

	"multijoin/internal/database"
	"multijoin/internal/obs"
)

// StepTrace reports one step of an evaluation: the join performed, the
// operand and result sizes, and the step's structural classification.
// The JSON shape matches the "step" events of the structured obs trace,
// so `joinopt -trace-out` and a marshalled Trace name fields the same
// way.
type StepTrace struct {
	// Expr renders the step with relation names, e.g. "(R1⋈R2)⋈R3".
	Expr string `json:"name"`
	// LeftSize, RightSize and ResultSize are the τ values of the
	// operands and of the step's output.
	LeftSize int `json:"left"`
	// RightSize is the right operand's τ.
	RightSize int `json:"right"`
	// ResultSize is the step's output τ — the step's contribution to
	// τ(S).
	ResultSize int `json:"tuples"`
	// Cartesian reports whether the step joins unlinked sub-databases.
	Cartesian bool `json:"cartesian,omitempty"`
	// Shrinks and Grows classify the step for the Section 5 monotone
	// vocabulary: Shrinks means the result is no larger than either
	// operand; Grows means it is no smaller than either.
	Shrinks bool `json:"shrinks,omitempty"`
	// Grows means the result is no smaller than either operand.
	Grows bool `json:"grows,omitempty"`
}

// Trace is the step-by-step account of evaluating a strategy.
type Trace struct {
	// Steps lists the evaluation's joins in post-order execution order.
	Steps []StepTrace `json:"steps"`
	// Total is τ(S), the sum of the step result sizes.
	Total int `json:"tau"`
}

// TraceEvaluation evaluates the strategy step by step (post-order, the
// order a real executor would run it in) and reports each step. When
// the evaluator carries an obs.Recorder, each step is also emitted as a
// "step" event on the structured trace — one format for the CLI's
// -trace-out stream and the per-strategy trace — and the strategy's τ
// total as a closing "point" event named "strategy.tau".
func TraceEvaluation(ev *database.Evaluator, s *Node) Trace {
	db := ev.Database()
	g := db.Graph()
	rec := ev.Recorder()
	var tr Trace
	for _, step := range s.Steps() {
		l, r := step.Left(), step.Right()
		ls, rs := ev.Size(l.Set()), ev.Size(r.Set())
		out := step.Eval(ev).Size()
		st := StepTrace{
			Expr:       l.Render(db) + "⋈" + r.Render(db),
			LeftSize:   ls,
			RightSize:  rs,
			ResultSize: out,
			Cartesian:  !g.Linked(l.Set(), r.Set()),
			Shrinks:    out <= ls && out <= rs,
			Grows:      out >= ls && out >= rs,
		}
		tr.Steps = append(tr.Steps, st)
		tr.Total += out
		rec.Emit(obs.Event{Kind: "step", Name: st.Expr,
			Subset: step.Set().Len(), Tuples: int64(out),
			Left: int64(ls), Right: int64(rs),
			Cartesian: st.Cartesian, Shrinks: st.Shrinks, Grows: st.Grows})
	}
	rec.Emit(obs.Event{Kind: "point", Name: "strategy.tau",
		Subset: s.Set().Len(), Tuples: int64(tr.Total)})
	return tr
}

// String renders the trace as an aligned, human-readable table.
func (t Trace) String() string {
	var b strings.Builder
	for i, s := range t.Steps {
		tag := ""
		if s.Cartesian {
			tag = "  [cartesian]"
		}
		fmt.Fprintf(&b, "step %d: %-40s %d ⋈ %d → %d%s\n",
			i+1, s.Expr, s.LeftSize, s.RightSize, s.ResultSize, tag)
	}
	fmt.Fprintf(&b, "τ(S) = %d", t.Total)
	return b.String()
}

// MonotoneDecreasing reports whether every traced step shrinks.
func (t Trace) MonotoneDecreasing() bool {
	for _, s := range t.Steps {
		if !s.Shrinks {
			return false
		}
	}
	return true
}

// MonotoneIncreasing reports whether every traced step grows.
func (t Trace) MonotoneIncreasing() bool {
	for _, s := range t.Steps {
		if !s.Grows {
			return false
		}
	}
	return true
}

// AbortResult reports an early-abort evaluation (the Section 3 remark:
// "if R_D = ∅, then the evaluation of the database can be abandoned as
// soon as an intermediate relation state is null").
type AbortResult struct {
	// Aborted is true when an intermediate state came up empty and the
	// remaining steps were skipped.
	Aborted bool
	// StepsRun counts the steps actually executed (including the empty
	// one that triggered the abort).
	StepsRun int
	// CostPaid is the τ accumulated over the executed steps.
	CostPaid int
}

// EvaluateWithAbort runs the strategy's steps in post-order, stopping at
// the first empty intermediate result. For databases with R_D ≠ ∅ it
// degenerates to a full evaluation with CostPaid = τ(S).
func EvaluateWithAbort(ev *database.Evaluator, s *Node) AbortResult {
	var out AbortResult
	for _, step := range s.Steps() {
		size := step.Eval(ev).Size()
		out.StepsRun++
		out.CostPaid += size
		if size == 0 {
			out.Aborted = true
			return out
		}
	}
	return out
}
