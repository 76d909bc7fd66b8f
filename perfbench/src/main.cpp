/// \file main.cpp
/// \brief Repo benchmark driver: runs one workload through the library's
///        public API for a fixed time, checks every output, and prints each
///        metric by name with its unit. The last line of stdout is the
///        result object {"correct","attempted","failed","metrics"}.
///
///   kagen_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
///   kagen_perfbench --self-test --out DIR
///   kagen_perfbench --setup-probe --workload NAME --seed N --out DIR  (internal)
///
/// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
/// the layer ladder, and a Chrome trace of the benchmark's spans.
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "verify.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kProbesPerCall  = 3;
constexpr std::size_t kMinSetupProbes = 31;
constexpr std::size_t kMinReps        = 3;

struct Args {
    std::string workload;
    u64 seed         = 1;
    double seconds   = 10;
    bool trace       = false;
    bool self_test   = false;
    bool setup_probe = false;
    std::string out;
    std::string self; ///< this binary, re-executed for setup probes
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test" || flag == "--setup-probe") {
            (flag == "--self-test" ? a.self_test : a.setup_probe) = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        char* end           = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0') return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0)) return false;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") return false;
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out = v;
        } else {
            return false;
        }
    }
    return !a.out.empty() && (a.self_test || !a.workload.empty());
}

/// One setup probe: the workload's call on its shrunk shape in a fresh
/// process (this binary re-executed with --setup-probe), so every probe pays
/// the pool spin-up, first arena slabs, file create and, for ranks,
/// fork/pipes/merge. Returns the call's seconds, or a negative value if the
/// probe failed or its output did not verify.
double setup_probe(const Args& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return -1.0;
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<std::string> words = {args.self,   "--setup-probe",
                                      "--workload", args.workload,
                                      "--seed",     std::to_string(args.seed),
                                      "--out",      args.out};
    std::vector<char*> argv;
    for (auto& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    pid_t pid    = -1;
    const int rc = ::posix_spawn(&pid, args.self.c_str(), &actions, nullptr, argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string text;
    char buf[128];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) text.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    if (rc != 0) return -1.0;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return -1.0;
    }
    return std::strtod(text.c_str(), nullptr);
}

/// Runs the setup probes from a helper process forked before the driver has
/// allocated anything. Probes spawned by the driver itself would count
/// toward its RUSAGE_CHILDREN peak, which the ranks workload reads for its
/// ranks' peak RSS, and a posix_spawn child inherits the driver's own RSS
/// high-water mark at exec. The helper reaps its probes itself, so until it
/// ends (after the last measurement) the forked ranks are the driver's only
/// reaped children.
class ProbeLauncher {
public:
    explicit ProbeLauncher(const Args& args) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) return;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::close(fds[0]);
            char request = 0;
            while (::read(fds[1], &request, 1) == 1) {
                const double t = setup_probe(args);
                if (::send(fds[1], &t, sizeof t, MSG_NOSIGNAL) != sizeof t) break;
            }
            ::_exit(0);
        }
        ::close(fds[1]);
        if (pid_ < 0) {
            ::close(fds[0]);
        } else {
            fd_ = fds[0];
        }
    }
    ~ProbeLauncher() {
        if (pid_ <= 0) return;
        ::close(fd_);
        ::waitpid(pid_, nullptr, 0);
    }
    ProbeLauncher(const ProbeLauncher&)            = delete;
    ProbeLauncher& operator=(const ProbeLauncher&) = delete;

    /// One probe's seconds, or a negative value if it failed.
    double probe() {
        const char request = 'p';
        double t           = -1.0;
        if (pid_ <= 0 || ::send(fd_, &request, 1, MSG_NOSIGNAL) != 1 ||
            ::recv(fd_, &t, sizeof t, MSG_WAITALL) != sizeof t) {
            return -1.0;
        }
        return t;
    }

private:
    pid_t pid_ = -1;
    int fd_    = -1;
};

/// Body of a --setup-probe process; prints the call's seconds.
int run_setup_probe(const Workload& w, const std::string& dir) {
    const Reference ref = compute_reference(w.setup_cfg, w.num_chunks(), 1);
    const CallResult r  = run_call(w, w.setup_cfg, ref, dir, 1);
    if (!r.error.empty()) {
        std::fprintf(stderr, "setup probe: %s\n", r.error.c_str());
        return 1;
    }
    std::printf("%.9f\n", r.wall_s);
    return 0;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric {
    std::string name, unit;
    double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) s += ", ";
        s += json_quote(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
             ", \"unit\": " + json_quote(metrics[i].unit) + "}";
    }
    return s + "}";
}

struct Outcome {
    std::vector<Metric> metrics;
    std::vector<std::string> ladder;
    u64 attempted = 0;
    u64 failed    = 0;
    std::string first_error;
};

/// One run of `w`. `probes` launches the setup probes of an untraced run
/// (null in a traced run, which makes none).
Outcome measure(const Args& args, const Workload& w, Tracer& tracer, ProbeLauncher* probes) {
    Outcome out;
    auto count_call = [&](const CallResult& r) {
        ++out.attempted;
        if (r.error.empty()) return true;
        ++out.failed;
        if (out.first_error.empty()) out.first_error = r.error;
        return false;
    };

    // Setup probes are spread over the run (a few after every timed call)
    // so that their median samples the same machine state as the calls.
    std::vector<double> setup;
    auto probe_setup = [&](std::size_t count) {
        Tracer::Scope span(tracer, "setup_probes");
        for (std::size_t p = 0; p < count; ++p) {
            ++out.attempted;
            const double t = probes->probe();
            if (t > 0) {
                setup.push_back(t);
            } else {
                ++out.failed;
                if (out.first_error.empty()) out.first_error = "setup probe failed";
            }
        }
    };

    std::vector<Reference> refs(w.instances);
    for (u64 i = 0; i < w.instances; ++i) {
        Tracer::Scope span(tracer, "reference");
        refs[i] = compute_reference(w.instance(i), w.num_chunks(), kWorkers);
    }
    ::malloc_trim(0); // the reference's transient heap is not the workload's

    // Untraced calls, cycling over the run's graphs; in a traced run each
    // is paired with a call that has the library's own telemetry on, for
    // obs.overhead_pct.
    std::vector<CallResult> reps;
    std::vector<double> traced_slowdown; // traced / untraced call time, per pair
    std::vector<std::vector<double>> rss_by_graph(w.instances);
    {
        Tracer::Scope span(tracer, "measure");
        {
            // Warm-up: lazy set-up (pool threads, first page faults of the
            // output path) is setup_s's business, not the timed calls'.
            Tracer::Scope call(tracer, "call.warmup");
            count_call(run_call(w, w.instance(0), refs[0], args.out, kWorkers));
        }
        const double budget = args.trace ? args.seconds / 2 : args.seconds;
        const double start  = now_s();
        // Untraced runs make whole passes over their graphs, so each weighs
        // the same.
        auto more = [&](u64 k) {
            return k < kMinReps || now_s() - start < budget ||
                   (!args.trace && k % w.instances != 0);
        };
        auto timed_call = [&](const kagen::Config& cfg, u64 i, const char* span) {
            Tracer::Scope call(tracer, span);
            return run_call(w, cfg, refs[i], args.out, kWorkers);
        };
        for (u64 k = 0; more(k); ++k) {
            const u64 i             = k % w.instances;
            const kagen::Config cfg = w.instance(i);
            kagen::Config traced    = cfg;
            traced.trace_path       = args.out + "/" + w.name + ".library-trace.json";
            // Consecutive calls are not alike (memory freed by one call is
            // refaulted by the next), so the pair's order alternates.
            const bool traced_first = args.trace && k % 2 == 1;
            CallResult t;
            if (traced_first) t = timed_call(traced, i, "call.library_traced");
            const CallResult r = timed_call(cfg, i, "call");
            if (args.trace && !traced_first) t = timed_call(traced, i, "call.library_traced");
            if (count_call(r)) {
                rss_by_graph[i].push_back(r.peak_rss / 1e6);
                reps.push_back(r);
            }
            if (!args.trace) {
                probe_setup(kProbesPerCall);
            } else if (count_call(t) && r.error.empty()) {
                traced_slowdown.push_back(t.wall_s / r.wall_s);
            }
        }
    }

    if (!args.trace) {
        if (setup.size() < kMinSetupProbes) probe_setup(kMinSetupProbes - setup.size());
        // Peak memory is a property of the graph: median per graph, then
        // the mean over the run's graphs.
        double rss = 0.0;
        for (const auto& v : rss_by_graph) rss += median(v) / static_cast<double>(w.instances);
        // Throughput over every timed call: total edges / total call time.
        double cpu = 0.0, edges = 0.0, seconds = 0.0;
        for (const auto& r : reps) {
            cpu += r.cpu_s;
            edges += static_cast<double>(r.edges);
            seconds += r.wall_s;
        }
        // attempted/failed so far exclude the self-test, which main adds.
        const double verified = static_cast<double>(out.attempted - out.failed) /
                                static_cast<double>(std::max<u64>(out.attempted, 1));
        out.metrics = {
            {"edges_per_s", "Medges/s", seconds > 0 ? edges / seconds / 1e6 : 0.0},
            {"peak_rss_mb", "MB", rss},
            {"core_s_per_Gedge", "s", edges > 0 ? cpu / edges * 1e9 : 0.0},
            {"setup_s", "s", median(setup)},
            {"verified_frac", "ratio", verified},
        };
        std::printf("calls %zu over %llu graph(s), setup probes %zu\n", reps.size(),
                    static_cast<unsigned long long>(w.instances), setup.size());
        return out;
    }

    LayerReport layers;
    {
        Tracer::Scope span(tracer, "layers");
        layers = probe_layers(w, refs[0], args.out, tracer, reps,
                              traced_slowdown.empty() ? 0.0
                                                      : (median(traced_slowdown) - 1.0) * 100.0);
    }
    out.attempted += layers.attempted;
    out.failed += layers.failed;
    if (out.first_error.empty()) out.first_error = layers.error;
    for (const auto& [name, unit] : per_layer_metrics()) {
        for (const auto& [n, v] : layers.metrics) {
            if (n == name) out.metrics.push_back({name, unit, v});
        }
    }
    out.ladder = layers.ladder_lines;
    return out;
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: kagen_perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --out DIR | --self-test --out DIR\n");
        return 2;
    }
    args.self = argv[0];
    if (args.setup_probe) {
        Workload w;
        return make_workload(args.workload, args.seed, w) ? run_setup_probe(w, args.out) : 2;
    }
    // Forked first, while the driver is small and has printed nothing.
    std::optional<ProbeLauncher> probes;
    if (!args.self_test && !args.trace) probes.emplace(args);
    ::mkdir(args.out.c_str(), 0755);
    const std::string results_dir = args.out + "/results";
    ::mkdir(results_dir.c_str(), 0755);

    // Every run first proves that its verifiers catch a corrupted output.
    const std::string st = self_test(args.out);
    if (args.self_test) {
        std::printf("self-test: %s\n", st.empty() ? "corruption is caught" : st.c_str());
        return st.empty() ? 0 : 1;
    }

    Workload w;
    if (!make_workload(args.workload, args.seed, w)) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const HostFingerprint host = host_fingerprint(args.out);
    std::printf("host %s\n", host.json().c_str());

    Tracer tracer;
    Outcome out;
    {
        Tracer::Scope span(tracer, "run." + w.name);
        out = measure(args, w, tracer, probes ? &*probes : nullptr);
    }
    out.attempted += 1; // the self-test
    if (!st.empty()) {
        out.failed += 1;
        out.first_error = "self-test: " + st;
    }
    for (const auto& l : out.ladder) std::printf("ladder %s\n", l.c_str());
    if (!out.first_error.empty()) std::printf("FAILED: %s\n", out.first_error.c_str());
    for (const auto& m : out.metrics) {
        std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    const bool correct = out.failed == 0;
    const std::string tag =
        w.name + "-seed" + std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    std::string doc = "{\"workload\": " + json_quote(w.name) + ", \"seed\": " +
                      std::to_string(args.seed) + ", \"trace\": " + (args.trace ? "1" : "0") +
                      ", \"host\": " + host.json() + ", \"correct\": " +
                      (correct ? "true" : "false") + ", \"attempted\": " +
                      std::to_string(out.attempted) + ", \"failed\": " +
                      std::to_string(out.failed) + ", \"metrics\": " +
                      metrics_json(out.metrics) + ", \"ladder\": [";
    for (std::size_t i = 0; i < out.ladder.size(); ++i) {
        doc += (i ? ", " : "") + json_quote(out.ladder[i]);
    }
    doc += "]}\n";
    const std::string result_path = results_dir + "/" + tag + ".json";
    if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
        std::fputs(doc.c_str(), f);
        std::fclose(f);
    }
    if (args.trace) {
        const std::string path = args.out + "/" + tag + ".trace.json";
        if (tracer.write_chrome(path)) std::printf("trace %s\n", path.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics_json(out.metrics).c_str());
    return 0;
}
