#pragma once

// MSIM_HOT — the hot-path allocation contract marker.
//
// Placing MSIM_HOT on a function definition (same line as the function
// name, or anywhere in its declaration run) declares that the function's
// steady-state execution must not allocate. The compiler sees nothing — the
// macro expands to empty — but `tools/detlint` treats every marked
// definition as an R6 (hotpath-alloc) root: it walks the call graph from
// the definition through the scanned tree and flags every reachable
// allocation-prone construct. Warm-up and amortized sites on the path
// (pool growth chunks, rings filling to capacity once) carry
// `detlint:allow(hotpath-alloc)` with a justification.
//
// The static gate mirrors the runtime ones: BM_InterestGridFanout and
// BM_SessionChurnSteady are gated at ~0 allocs per forward/delivery by
// bench_diff.py --max-alloc; MSIM_HOT is how the same contract fails the
// build before the bench ever runs. The equivalent comment form for
// template/header definitions is a `detlint:hotpath` comment directly above
// the definition (see DESIGN.md §14).
#define MSIM_HOT
