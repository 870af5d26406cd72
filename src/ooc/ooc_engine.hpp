#pragma once
// Out-of-core deterministic engine: GraphChi's Parallel Sliding Windows with
// real disk I/O. Edge data lives in shard files (ooc/shard_store.hpp); one
// iteration processes the execution intervals in order, loading interval i's
// memory shard (its in-edges) plus one contiguous window of every other
// shard (its out-edges), running the interval's scheduled updates in label
// order, and writing the dirty ranges back.
//
// Execution order equals run_deterministic's global ascending label order,
// so results are BIT-IDENTICAL to the in-memory deterministic engine — the
// property that made GraphChi's out-of-core design transparent to algorithm
// authors, and which the tests assert. Intervals with no scheduled updates
// are skipped without touching disk (selective scheduling).
//
// The engine is the OOC-NE engine (ooc_nondet.hpp) run by one thread, whose
// static block is then the whole interval in ascending label order, so
// run_ooc_deterministic lives there too.

#include "ooc/ooc_nondet.hpp"  // run_ooc_deterministic
