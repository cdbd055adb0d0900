// Deterministic fault injection for chaos testing.
//
// Named probe points sit at the scary seams of the stack — singular basis
// recovery, non-finite FTRAN/BTRAN results, allocation failure while
// stamping encodings, a throwing worker inside run_parallel_pass — and
// are compiled in ALWAYS. Disarmed (the default) they cost one relaxed
// atomic load; armed, a probe fires on an exact hit schedule so chaos
// tests are bit-reproducible: fire_at = k means "the k-th time this probe
// is evaluated" (1-based), and `count` consecutive evaluations fire from
// there.
//
// The production code never branches on "am I under test": it asks
// fault::should_fire("lp.ftran_nonfinite") and, when true, simulates the
// fault (poisons a value, throws bad_alloc, ...) and exercises the SAME
// recovery path a real fault would take. Tests assert the recovery —
// refactorize, crash to the logical basis, degrade the entry to an
// explained UNKNOWN, drain the worker pool — rather than assuming it.
//
// Arming: tests call fault::arm()/disarm_all() directly; the CI chaos job
// arms via the environment (DPV_FAULT="probe:fire_at[:count][,probe:...]"
// read once at first use) so a stock binary can run under injected faults.
//
// Probe catalog (kept in sync with docs/ARCHITECTURE.md):
//   lp.refactor_singular   refactorize() reports the basis singular
//   lp.ftran_nonfinite     FTRAN'd pivot column entry becomes NaN
//   lp.btran_nonfinite     BTRAN'd pivot row becomes NaN
//   verify.encode_alloc    encoding stamp-out throws std::bad_alloc
//   core.worker_throw      a run_parallel_pass worker throws mid-job
#pragma once

#include <cstddef>
#include <string>

namespace dpv::fault {

/// True when probe `name` should simulate its fault on this evaluation;
/// each fire writes one "fault: <name> fired (hit <k>)" line to stderr.
/// Wait-free single atomic load when nothing is armed anywhere.
bool should_fire(const char* name);

/// Arms `name` to fire on its `fire_at`-th evaluation (1-based) and the
/// `count - 1` evaluations after it. Re-arming a probe replaces its
/// schedule and resets its hit counter.
void arm(const std::string& name, std::size_t fire_at, std::size_t count = 1);

/// Disarms every probe and clears all hit/fire counters.
void disarm_all();

/// Evaluations of `name` since it was last (re)armed; 0 when never armed.
std::size_t hits(const std::string& name);

/// Times `name` actually fired since it was last (re)armed.
std::size_t fires(const std::string& name);

/// Parses a DPV_FAULT-style spec ("probe:fire_at[:count][,probe:...]")
/// and arms each entry; returns false on a malformed spec (nothing armed).
/// Called automatically with getenv("DPV_FAULT") on first should_fire().
bool arm_from_spec(const std::string& spec);

}  // namespace dpv::fault
