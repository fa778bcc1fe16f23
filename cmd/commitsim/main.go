// Command commitsim runs a single simulated execution of one commit
// protocol and prints the measured complexity plus an ASCII space-time
// diagram — the fastest way to SEE a protocol work (or block).
//
// Usage:
//
//	commitsim -protocol inbac -n 5 -f 2
//	commitsim -protocol inbac -n 5 -f 2 -votes 11011
//	commitsim -protocol 2pc -n 4 -crash 1@1          # P1 crashes at 1U: 2PC blocks
//	commitsim -protocol inbac -n 4 -crash 1@1        # same scenario: INBAC terminates
//	commitsim -protocol inbac -n 4 -slow 8x3         # slow network until GST=8U (3x delays)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

func main() { run(os.Args[1:], os.Stdout) }

// run is main with its inputs named, so the golden test can call it.
func run(args []string, out io.Writer) {
	fs := flag.NewFlagSet("commitsim", flag.ExitOnError)
	var (
		protocol = fs.String("protocol", "inbac", "protocol name (see -list)")
		n        = fs.Int("n", 5, "number of processes")
		f        = fs.Int("f", 2, "resilience parameter")
		votes    = fs.String("votes", "", "vote vector, e.g. 11011 (default: all 1)")
		crash    = fs.String("crash", "", "comma-separated crashes id@unit, e.g. 1@0,3@2")
		slow     = fs.String("slow", "", "eventually synchronous network gst@factor, e.g. 8x3")
		list     = fs.Bool("list", false, "list protocols and exit")
		noTrace  = fs.Bool("q", false, "suppress the space-time diagram")
	)
	fs.Parse(args) // ExitOnError: Parse does not return an error

	if *list {
		for _, p := range protocols.All() {
			fmt.Fprintf(out, "%-18s %-14s %s\n", p.Name, "cell "+p.Contract.CF.String()+"/"+p.Contract.NF.String(), p.Paper)
		}
		return
	}

	info, ok := protocols.ByName(*protocol)
	if !ok {
		fail("unknown protocol %q (try -list)", *protocol)
	}
	if *n < info.MinN {
		fail("%s needs n >= %d", *protocol, info.MinN)
	}

	cfg := sim.Config{N: *n, F: *f, New: info.New()}
	if *votes != "" {
		if len(*votes) != *n {
			fail("votes %q must have length n=%d", *votes, *n)
		}
		cfg.Votes = make([]core.Value, *n)
		for i, ch := range *votes {
			if ch != '0' && ch != '1' {
				fail("votes must be 0s and 1s")
			}
			cfg.Votes[i] = core.Value(ch - '0')
		}
	}

	var pols []sim.Policy
	u := sim.DefaultU
	if *crash != "" {
		crashes := make(map[core.ProcessID]core.Ticks)
		for _, part := range strings.Split(*crash, ",") {
			var id, unit int
			if _, err := fmt.Sscanf(part, "%d@%d", &id, &unit); err != nil {
				fail("bad -crash entry %q (want id@unit)", part)
			}
			crashes[core.ProcessID(id)] = core.Ticks(unit) * u
		}
		pols = append(pols, sched.Crashes(crashes))
	}
	if *slow != "" {
		parts := strings.SplitN(*slow, "x", 2)
		if len(parts) != 2 {
			fail("bad -slow %q (want gstXfactor, e.g. 8x3)", *slow)
		}
		gst, err1 := strconv.Atoi(parts[0])
		factor, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || factor < 2 {
			fail("bad -slow %q", *slow)
		}
		pols = append(pols, sched.GST(u, core.Ticks(gst)*u, core.Ticks(factor)*u))
	}
	cfg.Policy = sched.Merge(pols...)

	tr := &sim.Trace{Limit: 4096}
	cfg.Trace = tr
	r := sim.Run(cfg)

	fmt.Fprintf(out, "protocol: %s — %s\n", info.Name, info.Paper)
	fmt.Fprintf(out, "contract: CF=%v NF=%v\n", info.Contract.CF, info.Contract.NF)
	fmt.Fprintf(out, "execution class: %v\n", r.Class())
	fmt.Fprintf(out, "result: %v\n\n", r)
	for i := 1; i <= *n; i++ {
		p := core.ProcessID(i)
		switch {
		case r.Crashed[p] && r.Decisions[p] == 0 && r.DecisionTick[p] == 0:
			fmt.Fprintf(out, "  %v: CRASHED, undecided\n", p)
		case !r.Correct(p):
			fmt.Fprintf(out, "  %v: CRASHED after deciding %v at t=%d\n", p, r.Decisions[p], r.DecisionTick[p])
		default:
			if v, ok := r.Decisions[p]; ok {
				fmt.Fprintf(out, "  %v: decided %v at t=%d (delay unit %d, causal depth %d)\n",
					p, v, r.DecisionTick[p], (r.DecisionTick[p]+r.U-1)/r.U, r.DecisionDepth[p])
			} else {
				fmt.Fprintf(out, "  %v: UNDECIDED (blocked)\n", p)
			}
		}
	}
	fmt.Fprintf(out, "\nmessages to decide: %d (total sent: %d, consensus: %d)\n",
		r.MessagesToDecide, r.MessagesSent, r.ConsensusMessages())
	fmt.Fprintf(out, "delay units to last decision: %d\n", r.DelayUnits())
	if nbac := r.SolvesNBAC(); nbac {
		fmt.Fprintln(out, "this execution solves NBAC (validity + agreement + termination)")
	} else {
		fmt.Fprintf(out, "NBAC breakdown: validity=%v agreement=%v termination=%v\n",
			r.Validity(), r.Agreement(), r.Termination())
	}
	if !*noTrace {
		fmt.Fprintf(out, "\nspace-time diagram (U = %d ticks):\n%s", r.U, tr.SpaceTime(*n))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "commitsim: "+format+"\n", args...)
	os.Exit(2)
}
