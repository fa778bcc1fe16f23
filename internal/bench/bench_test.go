package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

var sweep = [][2]int{{3, 1}, {3, 2}, {5, 2}, {7, 3}, {8, 1}, {9, 4}, {12, 5}}

func TestTable1MatchesPaper(t *testing.T) {
	for _, nf := range sweep {
		n, f := nf[0], nf[1]
		rows, text := Table1(n, f)
		if len(rows) != 27 {
			t.Fatalf("n=%d f=%d: want 27 cells, got %d", n, f, len(rows))
		}
		for _, r := range rows {
			if !r.DelaysMatch() {
				t.Errorf("n=%d f=%d cell %v: delays %d != paper %d", n, f, r.Cell, r.Delays, r.PaperDelays)
			}
			if !r.MessagesMatch() {
				t.Errorf("n=%d f=%d cell %v: messages %d != paper %d", n, f, r.Cell, r.Messages, r.PaperMessages)
			}
		}
		if strings.Contains(text, "MISMATCH") {
			t.Errorf("n=%d f=%d: rendering reports a mismatch:\n%s", n, f, text)
		}
	}
}

func TestTable1CellStructure(t *testing.T) {
	cells := Table1Cells()
	if len(cells) != 27 {
		t.Fatalf("want 27 cells, got %d", len(cells))
	}
	// Spot-check the paper's headline cells.
	byName := make(map[string]Cell)
	for _, c := range cells {
		byName[c.String()] = c
	}
	if c := byName["(AVT, AVT)"]; c.DelayProto != "inbac" || c.MsgProto != "fullnbac" {
		t.Errorf("indulgent cell wired to %s/%s", c.DelayProto, c.MsgProto)
	}
	if c := byName["(AVT, T)"]; c.MsgProto != "chainnbac" {
		t.Errorf("(AVT, T) must use chainnbac, got %s", c.MsgProto)
	}
	if c := byName["(AV, A)"]; c.MsgProto != "anbac" {
		t.Errorf("(AV, A) must use anbac, got %s", c.MsgProto)
	}
	if c := byName["(AV, AV)"]; c.MsgProto != "avnbac-msg" || c.DelayProto != "avnbac-delay" {
		t.Errorf("(AV, AV) wired to %s/%s", c.DelayProto, c.MsgProto)
	}
	if c := byName["(AT, AT)"]; c.MsgProto != "0nbac" || c.DelayProto != "0nbac" {
		t.Errorf("(AT, AT) wired to %s/%s", c.DelayProto, c.MsgProto)
	}
}

func TestTable2DelaysAreOptimal(t *testing.T) {
	for _, nf := range sweep {
		ms, _ := Table2(nf[0], nf[1])
		want := []int{1, 1, 1, 2}
		for i, m := range ms {
			if m.Delays != want[i] {
				t.Errorf("n=%d f=%d %s: delays %d, want %d", nf[0], nf[1], m.Protocol, m.Delays, want[i])
			}
		}
	}
}

func TestTable3MessagesAreOptimal(t *testing.T) {
	for _, nf := range sweep {
		n, f := nf[0], nf[1]
		ms, _ := Table3(n, f)
		want := []int{0, n - 1 + f, n - 1 + f, 2*n - 2, 2*n - 2, 2*n - 2 + f}
		for i, m := range ms {
			if m.Messages != want[i] {
				t.Errorf("n=%d f=%d %s: messages %d, want %d", n, f, m.Protocol, m.Messages, want[i])
			}
		}
	}
}

func TestTable4Bounds(t *testing.T) {
	for _, nf := range sweep {
		n, f := nf[0], nf[1]
		ms, _ := Table4(n, f)
		in, full, one, chain := ms[0], ms[1], ms[2], ms[3]
		if in.Delays != 2 || one.Delays != 1 {
			t.Errorf("n=%d f=%d: indulgent/sync delays %d/%d, want 2/1", n, f, in.Delays, one.Delays)
		}
		if full.Messages != 2*n-2+f || chain.Messages != n-1+f {
			t.Errorf("n=%d f=%d: indulgent/sync messages %d/%d, want %d/%d",
				n, f, full.Messages, chain.Messages, 2*n-2+f, n-1+f)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	for _, nf := range sweep {
		n, f := nf[0], nf[1]
		ms, _ := Table5(n, f)
		for _, m := range ms {
			if m.PaperMessages >= 0 && m.Messages != m.PaperMessages {
				t.Errorf("n=%d f=%d %s: messages %d != paper %d", n, f, m.Protocol, m.Messages, m.PaperMessages)
			}
			// Delay deltas are only tolerated for the noop protocol
			// (chainnbac, +1 from the timer-start convention).
			delta := m.PaperDeltaDelays()
			switch m.Protocol {
			case "chainnbac":
				if delta != 1 {
					t.Errorf("n=%d f=%d chainnbac: delay delta %d, want +1", n, f, delta)
				}
			default:
				if delta != 0 {
					t.Errorf("n=%d f=%d %s: delay delta %d, want 0", n, f, m.Protocol, delta)
				}
			}
		}
	}
}

func TestFigure1AllBranchesReached(t *testing.T) {
	results, text := Figure1()
	for _, r := range results {
		if len(r.Missing) > 0 {
			t.Errorf("scenario %q missing branches %v\n%s", r.Scenario.Name, r.Missing, text)
		}
		if r.Decision != r.Scenario.WantDecision {
			t.Errorf("scenario %q decided %v, want %v", r.Scenario.Name, r.Decision, r.Scenario.WantDecision)
		}
		if r.Scenario.NeedsNBAC && !r.NBAC {
			t.Errorf("scenario %q must solve NBAC", r.Scenario.Name)
		}
	}
}

func TestCrossoverClaims(t *testing.T) {
	rows, _ := Crossover([]int{3, 5, 8, 12}, []int{1, 2, 3, 4})
	for _, r := range rows {
		if r.F == 1 {
			// f=1: INBAC uses 2n, within 2 messages of (blocking) 2PC and
			// at most any other indulgent protocol's cost.
			if r.INBACMessages != 2*r.N || r.INBACMessages > r.PaxosMessages+1 && r.PaxosMessages < r.INBACMessages {
				// At f=1, paxos = n+2n-2 = 3n-2 >= 2n for n >= 2.
				t.Errorf("n=%d f=1: INBAC %d must beat PaxosCommit %d", r.N, r.INBACMessages, r.PaxosMessages)
			}
		}
		if r.F >= 2 && r.N >= 3 && !r.PaxosWinsMessages {
			t.Errorf("n=%d f=%d: PaxosCommit must win messages (%d vs %d)", r.N, r.F, r.PaxosMessages, r.INBACMessages)
		}
		if r.INBACDelays != 2 || r.PaxosDelays != 3 {
			t.Errorf("n=%d f=%d: delays %d/%d, want 2/3", r.N, r.F, r.INBACDelays, r.PaxosDelays)
		}
	}
}

func TestAblationShowsBundlingMatters(t *testing.T) {
	rows, _ := Ablation([][2]int{{4, 1}, {5, 2}, {8, 3}})
	for _, r := range rows {
		if r.Bundled != 2*r.F*r.N {
			t.Errorf("n=%d f=%d: bundled %d != 2fn", r.N, r.F, r.Bundled)
		}
		if r.Unbundled <= r.Bundled {
			t.Errorf("n=%d f=%d: unbundled %d must exceed bundled %d", r.N, r.F, r.Unbundled, r.Bundled)
		}
		if r.Delays != 2 {
			t.Errorf("n=%d f=%d: ablation must keep 2 delays", r.N, r.F)
		}
	}
}

func TestAbortLatency(t *testing.T) {
	rows, _ := AbortLatency([][2]int{{4, 1}, {6, 2}})
	for _, r := range rows {
		if r.BaseDelays != 2 || r.AcceleratedDelays != 1 {
			t.Errorf("n=%d f=%d: base/accelerated = %d/%d, want 2/1", r.N, r.F, r.BaseDelays, r.AcceleratedDelays)
		}
	}
}

func TestBlockingDemoRenders(t *testing.T) {
	out := BlockingDemo(5, 2)
	if !strings.Contains(out, "2pc") || !strings.Contains(out, "false") {
		t.Errorf("demo must show 2PC blocking:\n%s", out)
	}
	if !strings.Contains(out, "inbac") {
		t.Errorf("demo must include inbac:\n%s", out)
	}
}

// TestAllOutputGolden pins `commitbench -all` (n=8 f=3: every table, Figure
// 1, the sweep and the four extras, with the argument lists
// cmd/commitbench/main.go passes) byte for byte, so a protocol refactor
// that claims to keep every count has a test saying so. Regenerate with
// `go run ./cmd/commitbench -all > internal/bench/testdata/all.golden` only
// when a table is meant to change.
func TestAllOutputGolden(t *testing.T) {
	const n, f = 8, 3
	var parts []string
	add := func(_ any, s string) { parts = append(parts, s) }
	add(Table1(n, f))
	add(Table2(n, f))
	add(Table3(n, f))
	add(Table4(n, f))
	add(Table5(n, f))
	add(Figure1())
	add(nil, SweepTable5([]int{3, 4, 5, 8, 12, 16, 24}, []int{1, 2, 3, 5, 8}))
	add(Crossover([]int{3, 5, 8, 12, 16, 24}, []int{1, 2, 3, 5}))
	add(Ablation([][2]int{{4, 1}, {5, 2}, {8, 3}, {12, 5}, {16, 7}}))
	add(AbortLatency([][2]int{{4, 1}, {6, 2}, {8, 3}, {12, 5}}))
	add(nil, BlockingDemo(n, f))
	got := strings.Join(parts, "\n") + "\n"

	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("commitbench -all output differs from testdata/all.golden:\n%s", firstDiff(got, string(want)))
	}
}

// firstDiff names the first line at which two outputs differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
