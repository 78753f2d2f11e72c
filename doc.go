// Package repro is a from-scratch Go reproduction of "Providing Effective
// Visualizations over Big Linked Data" (Desimoni & Po, EDBT/ICDT 2020
// Workshops): the H-BOLD system for hierarchical, interactive visual
// exploration of big Linked Data, together with every substrate it needs
// (SPARQL engine and protocol, endpoint simulation, document store,
// community detection, a concurrent extraction scheduler, a versioned
// snapshot cache in front of the presentation read path, and the
// D3-style layouts re-implemented as pure-Go geometry).
//
// The cache layer (internal/snapcache) generalizes the paper's §3.2
// lesson — precompute the Cluster Schema instead of recomputing it per
// view — to every presentation read: summaries, cluster schemas, layout
// models and rendered SVG are memoized per dataset generation, a counter
// internal/core bumps whenever an extraction job succeeds, and
// internal/server serves matching "<url>@<generation>" ETags so
// unchanged datasets revalidate with 304 instead of recomputing.
//
// The query layer (internal/sparql over internal/store) compiles each
// query into an ID-space plan: solution rows are flat slot arrays of
// interned store IDs, joins stream depth-first over sorted posting lists
// through a lock-once store snapshot, and terms materialize only at
// projection and expression boundaries. One pipeline serves Exec, Stream
// and EXPLAIN; the original term-space evaluator survives only as the
// reference the differential and conformance tests check it against.
//
// Queries execute through a context-aware streaming surface:
// endpoint.Client carries the caller's deadline and cancellation to the
// wire, endpoint.Stream returns rows as a sparql.RowSeq the moment the
// engine produces them, the SPARQL protocol moves bindings one at a
// time in both directions (incremental server writes with flushes,
// token-wise client decoding), and extraction, the crawler, the query
// builder and the server's streaming /api/query route all consume rows
// without ever materializing a full result.
//
// The federation layer (internal/federation over endpoint.Source) makes
// N endpoints answer as one: FederatedClient implements the same
// Client/Streamer surface, fans each query out under per-branch
// contexts, k-way-merges the row streams with bounded per-branch
// buffering (DISTINCT deduplicated on the merge, first fatal error
// canceling every branch), and selects sources before fan-out by the
// extracted indexes — endpoints whose index provably cannot answer the
// query's required predicates and classes are never contacted.
//
// See README.md for the quickstart and HTTP API, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
// The benchmarks in bench_test.go regenerate every figure and
// quantitative claim of the paper; cmd/hbold is the CLI and
// cmd/hbold-bench the experiment harness.
package repro
