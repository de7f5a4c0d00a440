// Package obsv is the repository's resource-attribution layer, built on
// internal/telemetry. Where telemetry provides the instruments (counters,
// gauges, histograms, spans), obsv provides the policies that turn them
// into the paper's quantitative story:
//
//   - A runtime/metrics sampler goroutine (sampler.go) that feeds heap
//     size, GC activity, goroutine count, and allocation rate into the
//     shared registry, so every cmd/ artifact carries the host's runtime
//     behavior alongside the kernel numbers.
//   - Per-kernel resource accounts (account.go): wall time, items/TEPS,
//     allocation bytes and object counts, GC cycles, and parallel-scheduler
//     activity, captured as a delta around a kernel invocation and attached
//     to its span — the measured analogue of the model's per-step resource
//     demands.
//   - A common four-resource step schema (schema.go) that the analytic
//     NORA model (internal/perfmodel), the migrating-thread simulator
//     (internal/emu), and the sparse-accelerator simulator
//     (internal/lamachine) all map onto, plus an operational NORA step
//     simulator (norasim.go) and a model-vs-measured report (report.go,
//     printed by `norasim -modelcheck`) — the reproduction's analogue of
//     validating Fig. 3.
//
// # Concurrency contract
//
// The sampler runs as one background goroutine writing gauges through the
// registry's atomic setters; Start/Stop are idempotent and safe to call
// from any goroutine. A Meter (and the Account it produces) is
// single-goroutine state bracketing one kernel invocation — attribute
// concurrent kernels with one Meter each, not a shared one. The
// process-wide deltas a Meter reads (runtime.MemStats, par.Totals) are
// attributed to whatever ran inside the bracket, so overlapping brackets
// double-count. Report is a plain value with no shared state.
package obsv
