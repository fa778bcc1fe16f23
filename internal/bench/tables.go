package bench

import (
	"fmt"

	"atomiccommit/internal/nbac"
	"atomiccommit/internal/protocols"
)

// Cell is one non-empty cell of the paper's Table 1: the properties required
// in crash-failure (CF) and network-failure (NF) executions, the paper's
// tight bounds, and the protocols whose measurements realize them.
type Cell struct {
	CF, NF nbac.Props

	// PaperDelays / PaperMessages are Table 1's tight bounds as formulas.
	PaperDelays   func(n, f int) int
	PaperMessages func(n, f int) int

	// DelayProto achieves the delay bound; MsgProto the message bound (the
	// paper proves 18 of the 27 cells cannot have both at once).
	DelayProto string
	MsgProto   string
}

// String renders the cell in the paper's notation, e.g. "(AVT, AV)".
func (c Cell) String() string { return fmt.Sprintf("(%v, %v)", c.CF, c.NF) }

func d1(n, f int) int    { return 1 }
func d2(n, f int) int    { return 2 }
func m0(n, f int) int    { return 0 }
func mN1F(n, f int) int  { return n - 1 + f }
func m2N2(n, f int) int  { return 2*n - 2 }
func mFull(n, f int) int { return 2*n - 2 + f }

// Table1Cells enumerates all 27 non-empty cells of Table 1 (columns = CF
// row-major as printed in the paper).
func Table1Cells() []Cell {
	A, V, T := nbac.PropA, nbac.PropV, nbac.PropT
	AV, AT, VT, AVT := nbac.PropsAV, nbac.PropsAT, nbac.PropsVT, nbac.PropsAVT
	none := nbac.PropsNone
	mk := func(cf, nf nbac.Props, d, m func(n, f int) int) Cell {
		c := Cell{CF: cf, NF: nf, PaperDelays: d, PaperMessages: m}
		// Delay-optimal protocol: the paper's group local maxima.
		if d(3, 1) == 2 {
			c.DelayProto = "inbac"
		} else {
			switch {
			case covers("0nbac", cf, nf):
				c.DelayProto = "0nbac"
			case covers("avnbac-delay", cf, nf):
				c.DelayProto = "avnbac-delay"
			default:
				c.DelayProto = "1nbac"
			}
		}
		// Message-optimal protocol per group.
		switch m(3, 1) {
		case m0(3, 1):
			c.MsgProto = "0nbac"
		case mN1F(3, 1):
			if covers("chainnbac", cf, nf) {
				c.MsgProto = "chainnbac"
			} else {
				c.MsgProto = "anbac"
			}
		case m2N2(3, 1):
			if covers("hubnbac", cf, nf) {
				c.MsgProto = "hubnbac"
			} else {
				c.MsgProto = "avnbac-msg"
			}
		default:
			c.MsgProto = "fullnbac"
		}
		return c
	}
	return []Cell{
		// NF = ∅ row.
		mk(none, none, d1, m0), mk(A, none, d1, m0), mk(V, none, d1, mN1F), mk(T, none, d1, m0),
		mk(AV, none, d1, mN1F), mk(AT, none, d1, m0), mk(VT, none, d1, mN1F), mk(AVT, none, d1, mN1F),
		// NF = A row.
		mk(A, A, d1, m0), mk(AV, A, d1, mN1F), mk(AT, A, d1, m0), mk(AVT, A, d2, mFull),
		// NF = V row.
		mk(V, V, d1, m2N2), mk(AV, V, d1, m2N2), mk(VT, V, d1, m2N2), mk(AVT, V, d1, m2N2),
		// NF = T row.
		mk(T, T, d1, m0), mk(AT, T, d1, m0), mk(VT, T, d1, mN1F), mk(AVT, T, d1, mN1F),
		// NF = AV row.
		mk(AV, AV, d1, m2N2), mk(AVT, AV, d2, mFull),
		// NF = AT row.
		mk(AT, AT, d1, m0), mk(AVT, AT, d2, mFull),
		// NF = VT row.
		mk(VT, VT, d1, m2N2), mk(AVT, VT, d1, m2N2),
		// NF = AVT row.
		mk(AVT, AVT, d2, mFull),
	}
}

// covers reports whether the named protocol's contract dominates the cell.
func covers(name string, cf, nf nbac.Props) bool {
	info, ok := protocols.ByName(name)
	if !ok {
		return false
	}
	return info.Contract.CF.Has(cf) && info.Contract.NF.Has(nf)
}

// Table1Row is one measured cell of the grid.
type Table1Row struct {
	Cell          Cell
	Delays        int // measured on the delay-optimal protocol
	Messages      int // measured on the message-optimal protocol
	PaperDelays   int
	PaperMessages int
}

// DelaysMatch reports whether the measured delay equals the paper bound.
func (r Table1Row) DelaysMatch() bool { return r.Delays == r.PaperDelays }

// MessagesMatch reports whether the measured count equals the paper bound.
func (r Table1Row) MessagesMatch() bool { return r.Messages == r.PaperMessages }

// Table1 regenerates the complexity grid for one (n, f): for every
// non-empty cell, the delay bound is measured on the cell's delay-optimal
// protocol and the message bound on its message-optimal protocol.
func Table1(n, f int) ([]Table1Row, string) {
	cells := Table1Cells()
	rows := make([]Table1Row, 0, len(cells))
	for _, c := range cells {
		dm := MeasureNice(c.DelayProto, n, f)
		mm := MeasureNice(c.MsgProto, n, f)
		rows = append(rows, Table1Row{
			Cell:          c,
			Delays:        dm.Delays,
			Messages:      mm.Messages,
			PaperDelays:   c.PaperDelays(n, f),
			PaperMessages: c.PaperMessages(n, f),
		})
	}

	var t table
	t.title(fmt.Sprintf("Table 1 — Complexity of Atomic Commit (n=%d, f=%d); cells are d/m = delays/messages", n, f))
	t.row("%-12s %-14s %-14s %-10s %-18s %-18s %s", "cell(CF,NF)", "measured d/m", "paper d/m", "match", "delay protocol", "message protocol", "")
	for _, r := range rows {
		match := "ok"
		if !r.DelaysMatch() || !r.MessagesMatch() {
			match = "MISMATCH"
		}
		t.row("%-12s %-14s %-14s %-10s %-18s %-18s", r.Cell,
			fmt.Sprintf("%d/%d", r.Delays, r.Messages),
			fmt.Sprintf("%d/%d", r.PaperDelays, r.PaperMessages),
			match, r.Cell.DelayProto, r.Cell.MsgProto)
	}
	t.blank()
	t.row("27 non-empty cells; in 18 of them d- and m-optimal cannot coincide (paper section 1.3),")
	t.row("so each bound is measured on its own matching protocol.")
	return rows, t.String()
}

// Table2 regenerates the delay-optimal protocol table.
func Table2(n, f int) ([]Measurement, string) {
	names := []string{"avnbac-delay", "0nbac", "1nbac", "inbac"}
	cells := []string{"(AV, AV)", "(AT, AT)", "(AVT, VT)", "(AVT, AVT)"}
	var ms []Measurement
	var t table
	t.title(fmt.Sprintf("Table 2 — Delay-optimal Protocols (n=%d, f=%d)", n, f))
	t.row("%-14s %-12s %-16s %-16s %s", "protocol", "cell", "measured delays", "paper delays", "messages")
	for i, name := range names {
		m := MeasureNice(name, n, f)
		ms = append(ms, m)
		t.row("%-14s %-12s %-16d %-16s %d", name, cells[i], m.Delays, paperStr(m.PaperDelays), m.Messages)
	}
	return ms, t.String()
}

// Table3 regenerates the message-optimal protocol table.
func Table3(n, f int) ([]Measurement, string) {
	names := []string{"0nbac", "anbac", "chainnbac", "avnbac-msg", "hubnbac", "fullnbac"}
	cells := []string{"(AT, AT)", "(AV, A)", "(AVT, T)", "(AV, AV)", "(AVT, VT)", "(AVT, AVT)"}
	var ms []Measurement
	var t table
	t.title(fmt.Sprintf("Table 3 — Message-optimal Protocols (n=%d, f=%d)", n, f))
	t.row("%-14s %-12s %-18s %-18s %s", "protocol", "cell", "measured messages", "paper messages", "delays")
	for i, name := range names {
		m := MeasureNice(name, n, f)
		ms = append(ms, m)
		t.row("%-14s %-12s %-18d %-18s %d", name, cells[i], m.Messages, paperStr(m.PaperMessages), m.Delays)
	}
	return ms, t.String()
}

// Table4 regenerates the indulgent-vs-synchronous bounds table.
func Table4(n, f int) ([]Measurement, string) {
	var t table
	t.title(fmt.Sprintf("Table 4 — Indulgent Atomic Commit vs Synchronous NBAC (n=%d, f=%d)", n, f))
	in := MeasureNice("inbac", n, f)
	full := MeasureNice("fullnbac", n, f)
	one := MeasureNice("1nbac", n, f)
	chain := MeasureNice("chainnbac", n, f)
	t.row("%-34s %-22s %s", "", "indulgent atomic commit", "synchronous NBAC")
	t.row("%-34s %-22s %s", "#delays (delay-optimal protocol)",
		fmt.Sprintf("%d (inbac; paper 2)", in.Delays),
		fmt.Sprintf("%d (1nbac; paper 1)", one.Delays))
	t.row("%-34s %-22s %s", "#messages (msg-optimal protocol)",
		fmt.Sprintf("%d (fullnbac; paper 2n-2+f=%d)", full.Messages, 2*n-2+f),
		fmt.Sprintf("%d (chainnbac; paper n-1+f=%d)", chain.Messages, n-1+f))
	return []Measurement{in, full, one, chain}, t.String()
}

// Table5 regenerates the protocol comparison (spontaneous starts, footnote
// 13).
func Table5(n, f int) ([]Measurement, string) {
	names := []string{"1nbac", "chainnbac", "inbac", "2pc", "paxoscommit", "fasterpaxoscommit"}
	kinds := []string{"sync NBAC", "sync NBAC", "indulgent", "blocking", "indulgent", "indulgent"}
	var ms []Measurement
	var t table
	t.title(fmt.Sprintf("Table 5 — Protocol Comparison (n=%d, f=%d; spontaneous start)", n, f))
	t.row("%-18s %-12s %-10s %-14s %-10s %-14s %s", "protocol", "delays", "paper", "messages", "paper", "kind", "match")
	for i, name := range names {
		m := MeasureNice(name, n, f)
		ms = append(ms, m)
		match := "ok"
		if (m.PaperMessages >= 0 && m.Messages != m.PaperMessages) ||
			(m.PaperDelays >= 0 && m.Delays != m.PaperDelays) {
			match = fmt.Sprintf("Δdelays=%+d", m.PaperDeltaDelays())
		}
		t.row("%-18s %-12d %-10s %-14d %-10s %-14s %s",
			name, m.Delays, paperStr(m.PaperDelays), m.Messages, paperStr(m.PaperMessages), kinds[i], match)
	}
	t.blank()
	t.row("chainnbac's measured delays differ from the paper's 2f+n-1 by a constant +1 from the")
	t.row("timer-start convention (tick 0 = Propose); see DESIGN.md, \"Measurement conventions\".")
	return ms, t.String()
}

func paperStr(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// SweepTable5 renders Table 5 across an (n, f) grid, the series form used
// by the crossover analysis.
func SweepTable5(ns []int, fs []int) string {
	var t table
	t.title("Table 5 sweep — messages by (n, f)")
	header := fmt.Sprintf("%-8s %-6s", "n", "f")
	for _, name := range []string{"1nbac", "chainnbac", "inbac", "2pc", "paxoscommit", "fasterpaxoscommit"} {
		header += fmt.Sprintf(" %-18s", name)
	}
	t.row("%s", header)
	for _, n := range ns {
		for _, f := range fs {
			if f > n-1 {
				continue
			}
			line := fmt.Sprintf("%-8d %-6d", n, f)
			for _, name := range []string{"1nbac", "chainnbac", "inbac", "2pc", "paxoscommit", "fasterpaxoscommit"} {
				if n < 3 && (name == "chainnbac") {
					line += fmt.Sprintf(" %-18s", "-")
					continue
				}
				m := MeasureNice(name, n, f)
				line += fmt.Sprintf(" %-18d", m.Messages)
			}
			t.row("%s", line)
		}
	}
	return t.String()
}
