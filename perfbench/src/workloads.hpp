/// \file workloads.hpp
/// \brief The benchmark's workloads and the layer probes of its traced run.
///        Everything here goes through the library's public API; the
///        library itself carries no benchmark instrumentation.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "kagen.hpp"
#include "verify.hpp"

namespace perfbench {

enum class Kind {
    ChunkedFile,  ///< generate_chunked -> BinaryFileSink (ordered path)
    ChunkedCount, ///< generate_chunked -> CountingSink (unordered path)
    Ranks,        ///< generate_distributed, forked ranks gathered into one file
};

struct Workload {
    std::string name;
    Kind kind = Kind::ChunkedFile;
    kagen::Config cfg;       ///< the measured shape
    kagen::Config setup_cfg; ///< the same call shrunk to ~1 edge per chunk
    /// Graphs per run. A heavy-tailed model's cost varies from seed to
    /// seed, so such a workload cycles its calls over several graphs
    /// derived from the run's seed and reports their mix.
    u64 instances = 1;

    /// The measured config of graph `i` of this run (i = 0: the run's seed).
    kagen::Config instance(u64 i) const {
        kagen::Config c = cfg;
        c.seed += i * 0x9e3779b97f4a7c15ULL;
        return c;
    }

    /// C = K·P; no workload pins `total_chunks`.
    u64 num_chunks() const { return cfg.chunks_per_pe * kWorkers; }
};

/// The named workload with inputs derived from `seed`; false if unknown.
bool make_workload(const std::string& name, u64 seed, Workload& out);

/// One timed call of a workload and its verification.
struct CallResult {
    u64 edges        = 0;
    double wall_s    = 0.0; ///< public call until finish()/the merged file returns
    double cpu_s     = 0.0; ///< user+sys of this process and reaped children
    double peak_rss  = 0.0; ///< bytes; see run_call
    std::string error;      ///< "" = the call returned and its output verified
    kagen::ChunkStats chunk;
    kagen::dist::DistResult dist;
};

/// Runs `w`'s call on `cfg` (the measured or the setup shape) with outputs
/// under `dir`, checks the output against `ref`, then removes it. Peak RSS
/// is this process's VmHWM over the call (reset just before it) plus, for
/// forked ranks, ranks x the largest reaped child's peak.
CallResult run_call(const Workload& w, const kagen::Config& cfg, const Reference& ref,
                    const std::string& dir, unsigned verify_threads);

/// Per-layer numbers of the traced run, plus the printed layer ladder.
struct LayerReport {
    std::vector<std::pair<std::string, double>> metrics; ///< per_layer name -> value
    std::vector<std::string> ladder_lines;
    std::string error; ///< first probe whose output failed verification
    u64 attempted = 0;
    u64 failed    = 0;
};

/// Runs every layer probe that applies to `w` (see README.md for the table
/// of which metric applies where) and times each public call in a span.
/// `overhead_pct` is the workload's own slowdown, in %, with the library's
/// telemetry on, measured by the caller.
LayerReport probe_layers(const Workload& w, const Reference& ref, const std::string& dir,
                         Tracer& tracer, const std::vector<CallResult>& untraced_reps,
                         double overhead_pct);

/// Per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

} // namespace perfbench
