// Chaos-testing hook for the serving layer (docs/SERVING.md, "Overload &
// failure policy").
//
// In the spirit of the trainer's debug_abort_after_steps crash hook
// (docs/ROBUSTNESS.md), the injector lets tests and operators drive the
// serving stack through its failure modes on demand: make Predict() throw
// (exercising the dispatcher's containment boundary), stall or gate
// Predict() (exercising deadline shedding and bounded admission), or fail a
// checkpoint Reload() after staging but before the swap (exercising
// old-model continuity). When nothing is installed every hook is a single
// relaxed atomic load — serving pays nothing for the capability.
//
// Faults come from two places:
//   - tests call Install(config) / Uninstall() directly;
//   - operators set CONFORMER_SERVE_FAULTS, e.g.
//       CONFORMER_SERVE_FAULTS="throw_every=5,stall_us=2000,fail_reload=1"
//     which installs an injector at the first serving call.
//
// Faults can be scoped to one tenant of a model fleet (docs/SERVING.md):
// `scope=<tenant-key>` limits every fault to sessions whose
// SessionConfig::fault_scope matches (FleetServer::AddTenant stamps each
// tenant's key there), so a chaos drill can break conformer@16 while
// linear@16 keeps serving bitwise-unchanged forecasts.

#ifndef CONFORMER_SERVE_FAULT_INJECTOR_H_
#define CONFORMER_SERVE_FAULT_INJECTOR_H_

#include <cstdint>
#include <stdexcept>
#include <string>

namespace conformer::serve {

/// \brief The exception injected Predict faults throw; derived from
/// std::runtime_error so the dispatcher's generic containment catches it
/// like any real model failure.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// \brief Process-wide serving fault injector. All members are static; the
/// hooks are thread-safe and zero-cost while no injector is installed.
class FaultInjector {
 public:
  struct Config {
    /// Every nth Predict throws InjectedFault (1 = every call, 0 = never).
    int64_t throw_every = 0;
    /// Injected latency per stalled Predict, microseconds.
    int64_t stall_us = 0;
    /// Every nth Predict stalls for stall_us (1 = every call; 0 with
    /// stall_us > 0 also means every call).
    int64_t stall_every = 0;
    /// Reload() fails after the new parameters are staged, immediately
    /// before the swap — the old model must keep serving untouched.
    bool fail_reload = false;
    /// Non-empty: faults apply only to sessions whose
    /// SessionConfig::fault_scope equals this string (tenant keys in a
    /// fleet). Empty: faults apply to every session, the pre-fleet
    /// behaviour.
    std::string scope{};
  };

  /// Installs `config` process-wide (replacing any previous injector).
  static void Install(const Config& config);
  /// Removes the injector; every hook returns to its zero-cost path.
  static void Uninstall();
  static bool Enabled();

  /// Closes (true) or opens (false) the Predict gate: while closed, every
  /// Predict blocks inside the model's serialization point until the gate
  /// opens. Deterministic replacement for stall_us in tests. Works with or
  /// without an installed Config.
  static void SetPredictGate(bool closed);

  /// Hook: called by InferenceSession::Predict with the session's
  /// fault_scope. May block on the gate, stall, and/or throw InjectedFault.
  /// A scoped injector ignores sessions whose scope does not match (the
  /// gate still applies to everyone: it is a test synchronization tool,
  /// not a fault).
  static void MaybePredictFault(const std::string& scope = "");
  /// Hook: called by InferenceSession::Reload between staging and swap,
  /// with the session's fault_scope.
  static bool ShouldFailReload(const std::string& scope = "");

  /// Parses a CONFORMER_SERVE_FAULTS-style spec ("k=v,k=v"). Returns false
  /// (leaving `config` default) on malformed input. Exposed for tests.
  static bool ParseConfig(const std::string& spec, Config* config);

 private:
  FaultInjector() = delete;
};

}  // namespace conformer::serve

#endif  // CONFORMER_SERVE_FAULT_INJECTOR_H_
