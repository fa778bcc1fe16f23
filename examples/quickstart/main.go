// Quickstart: commit a distributed transaction across three participants
// with INBAC (the paper's indulgent, delay-optimal protocol) in a dozen
// lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"atomiccommit/commit"
)

func main() {
	// Three participants; each votes through its Resource. ResourceFunc
	// with no fields votes yes and ignores the callbacks. Each participant
	// applies the decision on its own; applied counts them.
	var applied sync.WaitGroup
	participants := make([]commit.Resource, 3)
	for i := range participants {
		participants[i] = commit.ResourceFunc{CommitFn: func(tx string) {
			fmt.Printf("P%d committed %s\n", i+1, tx)
			applied.Done()
		}}
	}

	cluster, err := commit.NewCluster(participants, commit.Options{
		Protocol: commit.INBAC,          // try commit.TwoPC or commit.PaxosCommit
		F:        1,                     // tolerate one crash
		Timeout:  20 * time.Millisecond, // the unit U: >> network round trip
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Commit answers once the transaction's coordinator has applied the
	// decision; the other participants apply theirs on their own.
	applied.Add(len(participants))
	start := time.Now()
	committed, err := cluster.Commit(ctx, "order-42")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: committed=%v in %v (2 message delays = 2 x Timeout)\n",
		committed, time.Since(start).Round(time.Millisecond))
	applied.Wait()

	// A single no vote aborts everywhere — validity in action.
	veto := append([]commit.Resource{}, participants...)
	vetoed := make(chan struct{})
	veto[1] = commit.ResourceFunc{
		PrepareFn: func(string) bool { return false },
		AbortFn: func(tx string) {
			fmt.Println("P2 aborted", tx)
			close(vetoed)
		},
	}
	cluster2, err := commit.NewCluster(veto, commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster2.Close()
	committed, err = cluster2.Commit(ctx, "order-43")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision with a veto: committed=%v\n", committed)
	<-vetoed
}
