package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"atomiccommit/internal/protocols"
)

// TestSpaceTimeGolden pins what `commitsim -protocol <name> -n 5 -f 2`
// prints — complexity, per-process decisions and the space-time diagram —
// for every registered protocol, in a nice execution and with P1 crashed at
// time 0. The golden file is each command line followed by its output.
func TestSpaceTimeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, extra := range [][]string{nil, {"-crash", "1@0"}} {
		for _, p := range protocols.All() {
			args := append([]string{"-protocol", p.Name, "-n", "5", "-f", "2"}, extra...)
			fmt.Fprintf(&got, "$ commitsim %s\n", strings.Join(args, " "))
			run(args, &got)
		}
	}
	want, err := os.ReadFile("testdata/spacetime.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}
