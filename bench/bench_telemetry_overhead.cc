// Telemetry overhead guard: the wall-clock cost of the instrumented hot
// path must stay negligible. Runs the flagship complex query through a
// Session with the global registry enabled and disabled in many short
// on/off pairs. Each pair alternates which mode runs first, so CPU
// steal, frequency drift and cache warmth hit both modes equally, and
// the guard reads the median of the per-pair enabled/disabled ratios: a
// burst of noise spoils a few pairs, not the median of many.
//
// Exit status is the CI contract: non-zero when the median ratio
// exceeds DSKG_TELEM_OVERHEAD_MAX (default 1.05, i.e. <= 5% overhead).
// Wall-clock numbers are machine-dependent as usual; the *ratio* is
// what the guard pins down.
//
// Run with `--json out.json` for the machine-readable record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/telemetry.h"
#include "core/dual_store.h"
#include "core/session.h"
#include "workload/generators.h"

namespace dskg::bench {
namespace {

constexpr const char* kFlagship =
    "SELECT ?p WHERE { ?p y:wasBornIn ?city . "
    "?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . }";

double MaxRatio() {
  const char* env = std::getenv("DSKG_TELEM_OVERHEAD_MAX");
  if (env == nullptr) return 1.05;
  const double v = std::atof(env);
  return v > 1.0 ? v : 1.05;
}

/// Milliseconds to execute the flagship `iters` times on `session` with
/// the registry enabled or disabled.
double RunLeg(core::Session* session, bool enabled, int iters) {
  telemetry::MetricsRegistry::Global().set_enabled(enabled);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    auto exec = session->Execute(kFlagship);
    if (!exec.ok()) {
      std::fprintf(stderr, "flagship failed: %s\n",
                   exec.status().ToString().c_str());
      std::abort();
    }
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The q-quantile of `v` by nearest rank (sorts a copy).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

int Main(int argc, char** argv) {
  JsonReporter json(argc, argv, "bench_telemetry_overhead");

  workload::YagoConfig cfg;
  cfg.target_triples = Scaled(30000);
  rdf::Dataset ds = workload::GenerateYago(cfg);
  core::DualStore store(&ds, {});
  core::Session session(&store);

  auto& reg = telemetry::MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();

  // Short legs (a few ms each) so one pair sees one machine state; an
  // odd number of pairs gives the median a single middle pair.
  const int iters = 4;
  const int pairs = 101;

  // Warm both modes once (plan cache, allocator, branch predictors).
  RunLeg(&session, true, iters);
  RunLeg(&session, false, iters);

  std::vector<double> on_ms, off_ms, ratios;
  for (int p = 0; p < pairs; ++p) {
    double on = 0, off = 0;
    if (p % 2 == 0) {
      on = RunLeg(&session, true, iters);
      off = RunLeg(&session, false, iters);
    } else {
      off = RunLeg(&session, false, iters);
      on = RunLeg(&session, true, iters);
    }
    on_ms.push_back(on);
    off_ms.push_back(off);
    ratios.push_back(off > 0 ? on / off : 1.0);
  }
  reg.set_enabled(was_enabled);

  const double ratio = Quantile(ratios, 0.5);
  const double limit = MaxRatio();
  std::printf("%d on/off pairs of %d flagship executions per leg\n", pairs,
              iters);
  Rule();
  std::printf("median enabled leg  %10.3f ms\n", Quantile(on_ms, 0.5));
  std::printf("median disabled leg %10.3f ms\n", Quantile(off_ms, 0.5));
  std::printf("pair ratio p25/p75  %10.4f / %.4f\n", Quantile(ratios, 0.25),
              Quantile(ratios, 0.75));
  std::printf("median pair ratio   %10.4f   (limit %.2f)\n", ratio, limit);
  json.Row("summary", {{"pairs", pairs},
                       {"iters_per_leg", iters},
                       {"median_enabled_ms", Quantile(on_ms, 0.5)},
                       {"median_disabled_ms", Quantile(off_ms, 0.5)},
                       {"ratio_p25", Quantile(ratios, 0.25)},
                       {"ratio", ratio},
                       {"ratio_p75", Quantile(ratios, 0.75)},
                       {"limit", limit}});

  if (ratio > limit) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead ratio %.4f exceeds %.2f\n", ratio,
                 limit);
    return 1;
  }
  std::printf("OK: telemetry overhead within %.2fx\n", limit);
  return 0;
}

}  // namespace
}  // namespace dskg::bench

int main(int argc, char** argv) { return dskg::bench::Main(argc, argv); }
