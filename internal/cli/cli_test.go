package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the CLI and returns (stdout, stderr, exit code).
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := Run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestAnalyzeExample5(t *testing.T) {
	out, _, code := run(t, "-example", "5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"C3 violated",
		"Theorem 2",
		"((MS⋈SC)⋈(CI⋈ID))",
		"certificates verified",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestAnalyzeExample1Unconnected(t *testing.T) {
	out, _, code := run(t, "-example", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "scheme connected: false") {
		t.Errorf("Example 1 is unconnected:\n%s", out)
	}
	if !strings.Contains(out, "none — no theorem guarantees") {
		t.Errorf("unconnected schemes get no certificates:\n%s", out)
	}
}

func TestStrategiesListing(t *testing.T) {
	out, _, code := run(t, "-example", "4", "-strategies")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "all 3 strategies, cheapest first:") {
		t.Errorf("missing strategy list:\n%s", out)
	}
	// The cheapest is the CP-using S3 at τ=11.
	if !strings.Contains(out, "τ=11") || !strings.Contains(out, "uses-CP") {
		t.Errorf("expected τ=11 with uses-CP tag:\n%s", out)
	}
}

func TestCostTrace(t *testing.T) {
	out, _, code := run(t, "-example", "1", "-cost", "(R1 R3) (R2 R4)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"τ(S) = 546", "[cartesian]", "τ-optimum for comparison: τ=546"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestCostErrors(t *testing.T) {
	_, errOut, code := run(t, "-example", "1", "-cost", "R1 R2")
	if code == 0 {
		t.Fatal("partial strategy should fail")
	}
	if !strings.Contains(errOut, "not the whole database") {
		t.Errorf("stderr: %s", errOut)
	}
	_, errOut, code = run(t, "-example", "1", "-cost", "R1 R1")
	if code == 0 || !strings.Contains(errOut, "twice") {
		t.Errorf("duplicate relation should fail: %s", errOut)
	}
}

func TestReduceReport(t *testing.T) {
	out, _, code := run(t, "-gen", "chain", "-n", "4", "-seed", "3", "-reduce")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"full reduction", "pairwise consistent after reduction: true", "Yannakakis"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestReduceReportUnconnectedScheme(t *testing.T) {
	// Example 1 is unconnected but every component is acyclic: the
	// reducer must reduce component-wise instead of erroring (the old
	// FullReduce path rejected any unconnected scheme outright).
	out, errOut, code := run(t, "-example", "1", "-reduce")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"full reduction", "pairwise consistent after reduction: true", "Yannakakis"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestReduceGoverned(t *testing.T) {
	// The reduction itself is governed: a tiny tuple budget trips
	// mid-program with the typed budget error and exit code 4.
	_, errOut, code := run(t, "-example", "5", "-reduce", "-max-tuples", "1")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	if !strings.Contains(errOut, "tuples budget exceeded") {
		t.Errorf("want typed tuple budget error: %s", errOut)
	}
}

func TestPlanYannakakis(t *testing.T) {
	out, _, code := run(t, "-example", "5", "-plan", "yannakakis")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"acyclic fast path",
		"semijoin program:",
		"join phase: τ=",
		"strategy:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-plan yannakakis output missing %q\n%s", want, out)
		}
	}
}

func TestPlanYannakakisRejectsCyclic(t *testing.T) {
	_, errOut, code := run(t, "-gen", "cycle", "-n", "3", "-plan", "yannakakis")
	if code != 3 {
		t.Fatalf("cyclic scheme exited %d, want 3 (input): %s", code, errOut)
	}
	if !strings.Contains(errOut, "no join tree") {
		t.Errorf("stderr: %s", errOut)
	}
}

func TestJSONRoundTripThroughFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	out, _, code := run(t, "-example", "2", "-json", "-cost", "(R1' R2') R3'")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	jsonStart := strings.Index(out, "{")
	jsonEnd := strings.LastIndex(out, "}") + 1
	if err := os.WriteFile(path, []byte(out[jsonStart:jsonEnd]), 0o600); err != nil {
		t.Fatal(err)
	}
	out2, _, code := run(t, "-file", path)
	if code != 0 {
		t.Fatalf("exit %d reading back: %s", code, out2)
	}
	if !strings.Contains(out2, "C1 violated") {
		t.Errorf("Example 2's C1 violation lost in round trip:\n%s", out2)
	}
}

func TestGenerateFlags(t *testing.T) {
	out, _, code := run(t, "-gen", "star", "-n", "3", "-seed", "9", "-diagonal")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Theorem 3") {
		t.Errorf("diagonal star should certify Theorem 3:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                              // no source
		{"-example", "9"},               // bad example
		{"-gen", "weird"},               // bad shape
		{"-file", "/no/such/file"},      // missing file
		{"-example", "1", "-cost", "("}, // parse error
	}
	for _, args := range cases {
		if _, _, code := run(t, args...); code == 0 {
			t.Errorf("Run(%v) should fail", args)
		}
	}
}

func TestBadFlagExitCode(t *testing.T) {
	if _, _, code := run(t, "-nope"); code != 2 {
		t.Fatalf("bad flag should exit 2")
	}
}

func TestStrategiesRefusedOnLargeDatabases(t *testing.T) {
	_, errOut, code := run(t, "-gen", "chain", "-n", "9", "-rows", "2", "-strategies")
	if code == 0 || !strings.Contains(errOut, "limited to 8") {
		t.Errorf("large -strategies should be refused: %s", errOut)
	}
}

func TestOptimaFlag(t *testing.T) {
	out, _, code := run(t, "-example", "3", "-optima")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// Example 3: all three strategies are τ-optimum.
	if !strings.Contains(out, "all: 3 τ-optimum strategies at τ=7") {
		t.Errorf("expected three optima at τ=7:\n%s", out)
	}
	_, errOut, code := run(t, "-gen", "chain", "-n", "9", "-rows", "2", "-optima")
	if code == 0 || !strings.Contains(errOut, "limited to 8") {
		t.Errorf("large -optima should be refused: %s", errOut)
	}
}

func TestJSONFormat(t *testing.T) {
	out, _, code := run(t, "-example", "5", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var parsed struct {
		Connected    bool `json:"connected"`
		Certificates []struct {
			Theorem int `json:"theorem"`
		} `json:"certificates"`
		Optima []struct {
			Space    string `json:"space"`
			Tau      int    `json:"tau"`
			Strategy string `json:"strategy"`
		} `json:"optima"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if !parsed.Connected || len(parsed.Certificates) == 0 || len(parsed.Optima) == 0 {
		t.Fatalf("JSON content wrong: %+v", parsed)
	}
	for _, o := range parsed.Optima {
		if o.Space == "all" && o.Tau != 11 {
			t.Errorf("all-space τ = %d, want 11", o.Tau)
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	_, errOut, code := run(t, "-example", "1", "-format", "yaml")
	if code == 0 || !strings.Contains(errOut, "unknown format") {
		t.Errorf("unknown format should fail: %s", errOut)
	}
}

func TestCSVLoading(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "orders.csv"),
		[]byte("Cust,Order\nc1,o1\nc1,o2\nc2,o3\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "customers.csv"),
		[]byte("Cust,Region\nc1,north\nc2,south\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	out, _, code := run(t, "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "name=orders") || !strings.Contains(out, "name=customers") {
		t.Errorf("relations not loaded:\n%s", out)
	}
	if !strings.Contains(out, "scheme connected: true") {
		t.Errorf("orders and customers share Cust:\n%s", out)
	}
}

func TestCSVErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, code := run(t, "-csv", dir); code == 0 {
		t.Fatal("empty dir should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"),
		[]byte("A,A\n1,2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := run(t, "-csv", dir)
	if code == 0 || !strings.Contains(errOut, "duplicate attributes") {
		t.Errorf("duplicate attrs should fail: %s", errOut)
	}
}

func TestHelpExitsZero(t *testing.T) {
	_, errOut, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("-h should exit 0, got %d", code)
	}
	if !strings.Contains(errOut, "Usage") && !strings.Contains(errOut, "-example") {
		t.Errorf("-h should print usage: %s", errOut)
	}
}

func TestTimeoutTypedError(t *testing.T) {
	// A 1ns deadline is expired before the first governed charge, so the
	// run must abort with the guard's cancellation error naming the phase
	// it interrupted, not hang or crash.
	_, errOut, code := run(t, "-gen", "chain", "-n", "6", "-timeout", "1ns")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	if !strings.Contains(errOut, "cancelled in phase") || !strings.Contains(errOut, "deadline") {
		t.Errorf("want typed cancellation naming the phase: %s", errOut)
	}
}

func TestTupleBudgetTypedError(t *testing.T) {
	_, errOut, code := run(t, "-example", "5", "-max-tuples", "1")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	if !strings.Contains(errOut, `tuples budget exceeded in phase "materialize"`) {
		t.Errorf("want typed tuple budget error naming the phase: %s", errOut)
	}
}

func TestStateBudgetPartialReport(t *testing.T) {
	// A state budget that survives materialization and condition checking
	// but trips inside the optimizer produces a *partial* report: the
	// profile and any completed subspace optima print, the truncated
	// phases are named, and the exit code still reflects the cut.
	out, errOut, code := run(t, "-example", "5", "-max-states", "40")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	if !strings.Contains(errOut, "analysis truncated in phase") ||
		!strings.Contains(errOut, "states budget exceeded") {
		t.Errorf("stderr should name the truncated phase: %s", errOut)
	}
	for _, want := range []string{
		"conditions:", // the profile itself completed
		"truncated phases (resource guard):",
		"cut short",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("partial report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "certificates verified") {
		t.Errorf("truncated run must not claim full verification:\n%s", out)
	}
}

func TestOptimaDegradationLadder(t *testing.T) {
	// With a shared state budget every rung of the ladder (exhaustive →
	// DP → greedy) re-trips; each attempt must be reported and the
	// original typed error surfaced. The space that completed before the
	// trip still prints its optima.
	out, errOut, code := run(t, "-example", "5", "-optima", "-max-states", "25")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	for _, want := range []string{
		"all: 1 τ-optimum strategies at τ=11",
		"exhaustive enumeration truncated",
		"DP fallback also cut",
		"greedy fallback also cut",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ladder output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "states budget exceeded") {
		t.Errorf("want typed budget error: %s", errOut)
	}
}

func TestJSONFormatTruncated(t *testing.T) {
	out, errOut, code := run(t, "-example", "5", "-format", "json", "-max-states", "20")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	var parsed struct {
		Truncated []struct {
			Phase string `json:"phase"`
			Error string `json:"error"`
		} `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("truncated run must still emit valid JSON: %v\n%s", err, out)
	}
	if len(parsed.Truncated) == 0 || parsed.Truncated[0].Phase != "optimize:all" {
		t.Fatalf("JSON missing truncation records: %+v", parsed)
	}
}

func TestGovernedRunWithinBudgetSucceeds(t *testing.T) {
	// Generous budgets must not change behaviour: the governed run's
	// report matches the ungoverned one byte for byte.
	want, _, code := run(t, "-example", "5")
	if code != 0 {
		t.Fatalf("ungoverned exit %d", code)
	}
	got, _, code := run(t, "-example", "5", "-timeout", "1m", "-max-tuples", "1000000", "-max-states", "1000000")
	if code != 0 {
		t.Fatalf("governed exit %d", code)
	}
	if got != want {
		t.Errorf("governed output differs from ungoverned:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDOTOutput(t *testing.T) {
	out, _, code := run(t, "-example", "1", "-dot", "(R1 R3) (R2 R4)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"digraph strategy", "style=dashed", "τ=490", "R1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestPlanEstimateFlag(t *testing.T) {
	for _, mode := range []string{"estimate", "histogram"} {
		out, _, code := run(t, "-example", "5", "-plan", mode)
		if code != 0 {
			t.Fatalf("-plan %s: exit %d", mode, code)
		}
		wantModel := "uniform"
		if mode == "histogram" {
			wantModel = "histogram"
		}
		for _, want := range []string{
			"estimate-driven planning (" + wantModel + " model)",
			"all", "no-cartesian", "linear-no-cartesian", "greedy",
			"true τ=",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("-plan %s output missing %q\n%s", mode, want, out)
			}
		}
	}
}

func TestPlanUnknownModeExitCode(t *testing.T) {
	_, errOut, code := run(t, "-example", "1", "-plan", "psychic")
	if code != 3 {
		t.Fatalf("unknown plan mode exited %d, want 3 (input)", code)
	}
	if !strings.Contains(errOut, "unknown plan mode") {
		t.Errorf("stderr: %s", errOut)
	}
}

func TestPlanEstimateGoverned(t *testing.T) {
	// The model DP charges the same state budget exact planning does.
	_, errOut, code := run(t, "-example", "5", "-plan", "estimate", "-max-states", "3")
	if code != 4 {
		t.Fatalf("tripped plan exited %d, want 4 (budget)\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "budget") {
		t.Errorf("stderr: %s", errOut)
	}
}

// Five 30-row relations over disjoint attributes: the full join is a
// 24.3 M-tuple Cartesian product. The tuple budget refuses it before it
// is built, so the run exits 4 promptly instead of exhausting memory.
func TestCartesianProductTripsBudgetBeforeBuild(t *testing.T) {
	type rel struct {
		Name  string     `json:"name"`
		Attrs []string   `json:"attrs"`
		Rows  [][]string `json:"rows"`
	}
	var rels []rel
	for i := 0; i < 5; i++ {
		r := rel{Name: fmt.Sprintf("R%d", i), Attrs: []string{fmt.Sprintf("X%d", i)}}
		for k := 0; k < 30; k++ {
			r.Rows = append(r.Rows, []string{fmt.Sprint(k)})
		}
		rels = append(rels, r)
	}
	body, err := json.Marshal(map[string][]rel{"relations": rels})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "product.json")
	if err := os.WriteFile(path, body, 0o600); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := run(t, "-file", path, "-max-tuples", "1000000")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped): %s", code, errOut)
	}
	if !strings.Contains(errOut, "tuples budget exceeded") {
		t.Errorf("want a typed tuple budget error: %s", errOut)
	}
}
