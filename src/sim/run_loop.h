// Compile-time specialization matrix for the per-event observer.
//
// The event kernel's RunUntil already instantiates its loop with and without
// an observer; this header names the *observer-side* matrix. A run is
// observed along two independent axes — invariant auditing and telemetry
// (metrics gauges / trace emission) — and the drivers (simulator.cc,
// server.cc) instantiate one observer function per combination, selected
// once per run through this enum. The runtime `if (auditor) ... if
// (registry) ...` masks the hot loop used to re-evaluate per event are gone:
// each instantiation contains only the code its variant needs, and the
// kPlain variant installs no observer at all, so the kernel runs its
// unobserved loop. The kernel takes observers only in raw
// (function pointer, context) form.

#ifndef VOD_SIM_RUN_LOOP_H_
#define VOD_SIM_RUN_LOOP_H_

namespace vod {

/// The four observer instantiations a driver chooses between, once per run.
enum class RunLoopVariant {
  kPlain,          ///< no auditor, no telemetry: no observer installed
  kAudited,        ///< invariant auditor only
  kTraced,         ///< telemetry (gauges/trace) only
  kAuditedTraced,  ///< both
};

/// Folds the two observation axes into the variant enum.
constexpr RunLoopVariant ComposeRunLoopVariant(bool audited, bool traced) {
  if (audited && traced) return RunLoopVariant::kAuditedTraced;
  if (audited) return RunLoopVariant::kAudited;
  if (traced) return RunLoopVariant::kTraced;
  return RunLoopVariant::kPlain;
}

}  // namespace vod

#endif  // VOD_SIM_RUN_LOOP_H_
