// Package atomiccommit reproduces "How Fast can a Distributed Transaction
// Commit?" (Guerraoui & Wang, PODS 2017) as a production-quality Go library.
//
// The public API lives in the commit subpackage; the protocols (each built
// from internal/core's kit of process sets and ordered sends, and listed once
// in internal/protocols' registry), the deterministic simulator, the
// consensus substrate and the benchmark harness live under internal/. Beyond one-at-a-time commit.Cluster.Commit, the
// pipeline API (commit.Cluster.Submit, Txn.Wait, commit.Cluster.CommitMany)
// runs many transactions concurrently, as many as the caller keeps
// outstanding — the throughput path. Every commit, on the in-memory mesh of
// a Cluster or on TCP, is driven by one commit.Client: it sends each
// submission at once, on one stage+go message that asks a Peer to
// coordinate (see commit/client.go). The kv
// subpackage is a sharded transactional key-value store driven by such a
// client: every shard
// votes on conflicts, so abort behavior becomes a real, workload-induced
// measurement. TestAuditedLoad (audit_test.go) puts either under closed-loop
// load on the mesh, on TCP and through kv with the live NBAC auditor
// attached; performance numbers come from the repo benchmark, see
// benchmark/README.md.
// Both runtimes (in-memory mesh and TCP) speak a hand-rolled binary wire
// codec with cross-instance frame packing and a pooled, allocation-free
// send path — see DESIGN.md's "Wire format" section.
// See README.md for a tour and DESIGN.md for the system inventory and the
// paper-vs-measured conventions behind every table and figure. The
// benchmarks in bench_test.go regenerate the paper's evaluation
// (go test -bench=. -benchmem).
package atomiccommit
