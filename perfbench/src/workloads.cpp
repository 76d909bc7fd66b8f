#include "workloads.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "net/coordinator.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "prng/rng.hpp"
#include "sampling/sampling.hpp"

namespace perfbench {

using kagen::Config;
using kagen::EdgeSemantics;
using kagen::Model;

namespace {

/// VmHWM restarts from the current RSS (Linux >= 4.0). If the reset is
/// refused, VmHWM stays the process peak so far, which only over-reports.
void reset_peak_rss() {
    const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    if (fd < 0) return;
    [[maybe_unused]] const ssize_t written = ::write(fd, "5", 1);
    ::close(fd);
}

double peak_rss_bytes() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return 1024.0 * std::stod(line.substr(6));
    }
    return 0.0;
}

double seconds_of(const timeval& tv) { return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec); }

/// user+sys of this process plus every reaped child (forked ranks).
double cpu_seconds() {
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
           seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
}

double largest_child_rss_bytes() {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    return 1024.0 * static_cast<double>(children.ru_maxrss);
}

/// An ordered destination that drops the edges: the ordered-delivery path
/// with no write behind it.
class NullOrderedSink final : public kagen::EdgeSink {
public:
    u64 edges = 0;

protected:
    void consume(const kagen::Edge*, std::size_t count) override { edges += count; }
};

/// Forwards an as-generated stream through the exact-once ownership
/// filter and times only the filter's share.
class TimedFilterSink final : public kagen::EdgeSink {
public:
    TimedFilterSink(kagen::IdIntervals owned, kagen::EdgeSink& target)
        : filter_(std::move(owned), target) {}
    double seconds = 0.0;
    u64 edges_in   = 0;
    void finish() override {
        flush();
        filter_.finish();
    }

protected:
    void consume(const kagen::Edge* e, std::size_t count) override {
        const double t = now_s();
        filter_.deliver(e, count);
        seconds += now_s() - t;
        edges_in += count;
    }

private:
    kagen::OwnershipFilterSink filter_;
};

void remove_file(const std::string& path) { ::unlink(path.c_str()); }

struct Timed {
    double seconds = 0.0; ///< wall time of the public call
    double inner   = 0.0; ///< the backend's own makespan (dist/net)
    kagen::ChunkStats stats;
    std::string error;
};

enum class Dest { Count, NullOrdered, File };

const char* dest_name(Dest d) {
    switch (d) {
        case Dest::Count: return "engine count";
        case Dest::NullOrdered: return "null ordered";
        case Dest::File: return "file";
    }
    return "?";
}

Timed run_engine(const Config& cfg, u64 threads, Dest dest, const std::string& dir,
                 const Reference& ref) {
    Timed r;
    const std::string path = dir + "/probe.bin";
    try {
        const double t0 = now_s();
        if (dest == Dest::Count) {
            kagen::CountingSink sink(cfg.edge_semantics);
            r.stats = kagen::generate_chunked(cfg, kWorkers, sink, threads);
            sink.finish();
            r.seconds = now_s() - t0;
            r.error   = verify_count(sink.summarize(), ref);
        } else if (dest == Dest::NullOrdered) {
            NullOrderedSink sink;
            r.stats = kagen::generate_chunked(cfg, kWorkers, sink, threads);
            sink.finish();
            r.seconds = now_s() - t0;
            if (sink.edges != ref.total_edges) r.error = "null ordered sink: edge count differs";
        } else {
            kagen::BinaryFileSink sink(path);
            r.stats = kagen::generate_chunked(cfg, kWorkers, sink, threads);
            sink.finish();
            r.seconds = now_s() - t0;
            r.error   = verify_file(path, ref, kWorkers);
        }
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    remove_file(path);
    return r;
}

Timed run_ranks(const Config& cfg, u64 ranks, const std::string& dir,
                const Reference& ref) {
    Timed r;
    kagen::dist::DistOptions o;
    o.num_ranks   = ranks;
    o.num_pes     = kWorkers;
    o.output_path = dir + "/probe.bin";
    o.scratch_dir = dir;
    try {
        const double t0 = now_s();
        const auto res  = kagen::generate_distributed(cfg, o);
        r.seconds       = now_s() - t0;
        r.inner         = res.seconds;
        r.error         = verify_file(o.output_path, ref, kWorkers);
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    remove_file(o.output_path);
    return r;
}

Timed run_tcp(const Config& cfg, u64 workers, const std::string& dir,
              const Reference& ref) {
    Timed r;
    const std::string path = dir + "/probe.bin";
    try {
        kagen::net::Listener listener(kagen::net::parse_endpoint("127.0.0.1:0"));
        kagen::net::NetOptions o;
        o.listener       = &listener;
        o.expect_workers = workers;
        o.num_pes        = kWorkers;
        o.output_path    = path;
        const std::string spec = "127.0.0.1:" + std::to_string(listener.port());
        std::vector<std::string> errors(workers);
        std::vector<std::thread> fleet;
        const double t0 = now_s();
        for (u64 i = 0; i < workers; ++i) {
            fleet.emplace_back([&, i] {
                try {
                    kagen::net::NetWorkerOptions wo;
                    wo.scratch_dir = dir;
                    kagen::net::run_net_worker(spec, wo);
                } catch (const std::exception& e) {
                    errors[i] = e.what();
                }
            });
        }
        try {
            const auto res = kagen::net::run_net_coordinator(cfg, o);
            r.seconds      = now_s() - t0;
            r.inner        = res.seconds;
        } catch (const std::exception& e) {
            r.error = e.what();
        }
        for (auto& t : fleet) t.join();
        for (const auto& e : errors) {
            if (r.error.empty() && !e.empty()) r.error = "net worker: " + e;
        }
        if (r.error.empty()) r.error = verify_file(path, ref, kWorkers);
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    remove_file(path);
    return r;
}

/// 1-thread sequential `kagen::generate` over all chunks into a
/// CountingSink, timing each chunk call.
struct Sequential {
    double seconds = 0.0;
    std::vector<double> chunk_seconds;
    std::string error;
};

Sequential run_sequential(const Config& cfg, u64 chunks, const Reference& ref) {
    Sequential s;
    kagen::CountingSink sink(cfg.edge_semantics);
    for (u64 c = 0; c < chunks; ++c) {
        const double t0 = now_s();
        kagen::generate(cfg, c, chunks, sink);
        sink.flush();
        s.chunk_seconds.push_back(now_s() - t0);
        s.seconds += s.chunk_seconds.back();
    }
    sink.finish();
    s.error = verify_count(sink.summarize(), ref);
    return s;
}

/// Sorted sampling without replacement as the G(n,m) chunks use it: one
/// chunk's share of the samples from one chunk's share of the universe.
double sampler_ns_per_sample(const Config& cfg, u64 chunks, std::string& error) {
    const kagen::u128 n   = cfg.n;
    const kagen::u128 all = cfg.model == Model::GnmDirected ? n * (n - 1) : n * (n - 1) / 2;
    const u64 universe    = static_cast<u64>(all / chunks);
    const u64 k           = cfg.m / chunks;
    std::vector<double> ns;
    for (u64 rep = 0; rep < 5; ++rep) {
        kagen::Rng rng = kagen::Rng::for_ids(cfg.seed, {0x5a3b1eULL, rep});
        u64 count = 0, last = 0;
        bool sorted = true;
        const double t0 = now_s();
        kagen::sorted_sample(rng, universe, k, [&](u64 s) {
            sorted = sorted && (count == 0 || s > last);
            last   = s;
            ++count;
        }, cfg.sampler_version);
        ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(k));
        if (count != k || !sorted || last >= universe) error = "sampler output is not a sorted k-sample";
    }
    return median(ns);
}

/// BinaryFileSink fed a pre-generated buffer through deliver(), in
/// slab-sized batches as ordered delivery hands chunks over.
double sink_write_mbps(const Config& cfg, u64 chunks, const std::string& dir, std::string& error) {
    kagen::MemorySink mem;
    kagen::generate(cfg, 0, chunks, mem);
    mem.flush();
    const kagen::EdgeList& edges = mem.edges();
    const std::size_t total = std::min<std::size_t>(edges.size(), std::size_t{1} << 21);
    constexpr std::size_t kBatch = std::size_t{1} << 16; // one 1 MiB slab
    const std::string path = dir + "/sink_write.bin";
    std::vector<double> mbps;
    for (int rep = 0; rep < 3 && total > 0; ++rep) {
        u64 written = 0;
        const double t0 = now_s();
        {
            kagen::BinaryFileSink sink(path);
            for (std::size_t off = 0; off < total; off += kBatch) {
                sink.deliver(edges.data() + off, std::min(kBatch, total - off));
            }
            sink.finish();
            written = sink.num_edges();
        }
        const double dt = now_s() - t0;
        if (written != total) error = "sink write probe: edge count differs";
        mbps.push_back(16.0 * static_cast<double>(total) / dt / 1e6);
        remove_file(path);
    }
    return median(mbps);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

} // namespace

bool make_workload(const std::string& name, u64 seed, Workload& w) {
    w      = Workload{};
    w.name = name;
    Config& c = w.cfg;
    c.seed    = seed;
    if (name == "gnm_directed_file") {
        w.kind          = Kind::ChunkedFile;
        c.model         = Model::GnmDirected;
        c.n             = u64{1} << 21;
        c.m             = u64{1} << 25;
        c.chunks_per_pe = 4;
        w.setup_cfg     = c;
        w.setup_cfg.m   = w.num_chunks();
    } else if (name == "rhg_count") {
        w.kind           = Kind::ChunkedCount;
        c.model          = Model::Rhg;
        c.n              = u64{1} << 20;
        c.avg_deg        = 16;
        c.gamma          = 2.2;
        c.edge_semantics = EdgeSemantics::exact_once;
        c.chunks_per_pe  = 4;
        w.instances      = 8;
        w.setup_cfg      = c;
        w.setup_cfg.n       = 2 * w.num_chunks();
        w.setup_cfg.avg_deg = 1;
    } else if (name == "gnm_undirected_ranks") {
        w.kind           = Kind::Ranks;
        c.model          = Model::GnmUndirected;
        c.n              = u64{1} << 21;
        c.m              = u64{1} << 25;
        c.edge_semantics = EdgeSemantics::exact_once;
        w.setup_cfg      = c;
        w.setup_cfg.m    = w.num_chunks();
    } else {
        return false;
    }
    return true;
}

CallResult run_call(const Workload& w, const Config& cfg, const Reference& ref,
                    const std::string& dir, unsigned verify_threads) {
    CallResult r;
    const std::string path = dir + "/" + w.name + "." + std::to_string(::getpid()) + ".bin";
    try {
        kagen::CountingSummary count;
        reset_peak_rss();
        const double cpu0 = cpu_seconds();
        const double t0   = now_s();
        switch (w.kind) {
            case Kind::ChunkedFile: {
                kagen::BinaryFileSink sink(path);
                r.chunk = kagen::generate_chunked(cfg, kWorkers, sink, kWorkers);
                sink.finish();
                r.edges = sink.num_edges();
                break;
            }
            case Kind::ChunkedCount: {
                kagen::CountingSink sink(cfg.edge_semantics);
                r.chunk = kagen::generate_chunked(cfg, kWorkers, sink, kWorkers);
                sink.finish();
                r.edges = sink.num_edges();
                count   = sink.summarize();
                break;
            }
            case Kind::Ranks: {
                kagen::dist::DistOptions o;
                o.num_ranks   = kWorkers;
                o.num_pes     = kWorkers;
                o.output_path = path;
                o.scratch_dir = dir;
                r.dist        = kagen::generate_distributed(cfg, o);
                r.edges       = r.dist.edges_written;
                break;
            }
        }
        r.wall_s   = now_s() - t0;
        r.cpu_s    = cpu_seconds() - cpu0;
        r.peak_rss = peak_rss_bytes();
        if (w.kind == Kind::Ranks) {
            r.peak_rss += static_cast<double>(kWorkers) * largest_child_rss_bytes();
        }
        r.error = w.kind == Kind::ChunkedCount ? verify_count(count, ref)
                                               : verify_file(path, ref, verify_threads);
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    remove_file(path);
    return r;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"sampling.ns_per_sample", "ns"},
        {"generate.ns_per_edge", "ns"},
        {"generate.chunk_imbalance", "ratio"},
        {"pe.parallel_efficiency", "ratio"},
        {"pe.deliver_ns_per_edge", "ns"},
        {"pe.peak_buffered_mb", "MB"},
        {"pe.arena_hit_ratio", "ratio"},
        {"spill.spilled_mb", "MB"},
        {"spill.edges_per_s", "Medges/s"},
        {"sink.write_ns_per_edge", "ns"},
        {"sink.write_MBps", "MB/s"},
        {"ownership.kept_ratio", "ratio"},
        {"ownership.filter_ns_per_edge", "ns"},
        {"dist.tax_s", "s"},
        {"dist.rank_imbalance", "ratio"},
        {"dist.copy_file_range_share", "ratio"},
        {"net.tax_s", "s"},
        {"obs.overhead_pct", "%"},
    };
    return names;
}

LayerReport probe_layers(const Workload& w, const Reference& ref, const std::string& dir,
                         Tracer& tracer, const std::vector<CallResult>& reps,
                         double overhead_pct) {
    LayerReport out;
    std::vector<std::pair<std::string, double>> m;
    for (const auto& [name, unit] : per_layer_metrics()) m.emplace_back(name, 0.0);
    auto set = [&m](const std::string& name, double value) {
        for (auto& kv : m) {
            if (kv.first == name) kv.second = value;
        }
    };
    auto check = [&out](const std::string& what, const std::string& error) {
        ++out.attempted;
        if (error.empty()) return;
        ++out.failed;
        if (out.error.empty()) out.error = what + ": " + error;
    };
    const Config& cfg  = w.cfg;
    const u64 chunks   = w.num_chunks();
    const double edges = static_cast<double>(ref.total_edges);
    const bool er      = cfg.model == Model::GnmDirected || cfg.model == Model::GnmUndirected;
    const bool to_file = w.kind != Kind::ChunkedCount;

    // Sequential generate: the 1-thread base of the ladder.
    Sequential seq;
    {
        Tracer::Scope span(tracer, "generate.sequential");
        seq = run_sequential(cfg, chunks, ref);
    }
    check("sequential generate", seq.error);
    set("generate.ns_per_edge", seq.seconds * 1e9 / edges);
    double mean_chunk = 0.0, max_chunk = 0.0;
    for (double s : seq.chunk_seconds) {
        mean_chunk += s / static_cast<double>(seq.chunk_seconds.size());
        max_chunk = std::max(max_chunk, s);
    }
    set("generate.chunk_imbalance", ratio(max_chunk, mean_chunk));

    // Layer ladder at 1 thread and at every core.
    const u64 nproc = std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
    const std::vector<u64> thread_counts = nproc > 1 ? std::vector<u64>{1, nproc} : std::vector<u64>{1};
    char line[160];
    std::snprintf(line, sizeof line, "%-16s %7s %9s %9s %11s", "step", "threads", "seconds",
                  "ns/edge", "delta_ns");
    out.ladder_lines.push_back(line);
    auto row = [&](const char* step, u64 threads, double seconds, double prev_ns) {
        const double ns = seconds * 1e9 / edges;
        std::snprintf(line, sizeof line, "%-16s %7llu %9.3f %9.2f %+11.2f", step,
                      static_cast<unsigned long long>(threads), seconds, ns, ns - prev_ns);
        out.ladder_lines.push_back(line);
        return ns;
    };
    const double seq_ns = row("generate (seq)", 1, seq.seconds, 0.0);
    Timed at_nproc[3]; // engine steps at nproc threads, indexed by Dest
    Timed count_one;   // engine count at 1 thread
    Timed tcp_all;
    for (u64 t : thread_counts) {
        double prev = seq_ns;
        std::vector<Dest> dests = {Dest::Count};
        if (to_file) dests = {Dest::Count, Dest::NullOrdered, Dest::File};
        for (Dest d : dests) {
            Timed r;
            {
                Tracer::Scope span(tracer, std::string("ladder.") + dest_name(d) + ".t" + std::to_string(t));
                r = run_engine(cfg, t, d, dir, ref);
            }
            check(dest_name(d), r.error);
            prev = row(dest_name(d), t, r.seconds, prev);
            if (t == nproc) at_nproc[static_cast<int>(d)] = r;
            if (t == 1 && d == Dest::Count) count_one = r;
        }
        if (!to_file) continue;
        Timed ranks, tcp;
        {
            Tracer::Scope span(tracer, "ladder.forked ranks.t" + std::to_string(t));
            ranks = run_ranks(cfg, t, dir, ref);
        }
        check("forked ranks", ranks.error);
        prev = row("forked ranks", t, ranks.seconds, prev);
        {
            Tracer::Scope span(tracer, "ladder.tcp loopback.t" + std::to_string(t));
            tcp = run_tcp(cfg, t, dir, ref);
        }
        check("tcp loopback", tcp.error);
        row("tcp loopback", t, tcp.seconds, prev);
        if (t == kWorkers) tcp_all = tcp;
    }
    const Timed& count_all = at_nproc[static_cast<int>(Dest::Count)];
    const Timed& null_all  = at_nproc[static_cast<int>(Dest::NullOrdered)];
    const Timed& file_all  = at_nproc[static_cast<int>(Dest::File)];
    if (count_all.seconds > 0) {
        // The same engine call at 1 thread and at every core.
        set("pe.parallel_efficiency",
            ratio(count_one.seconds,
                  static_cast<double>(count_all.stats.workers) * count_all.seconds));
    }

    if (w.kind == Kind::ChunkedFile) {
        set("pe.deliver_ns_per_edge", (null_all.seconds - count_all.seconds) * 1e9 / edges);
        std::vector<double> peak, hits;
        for (const auto& r : reps) {
            peak.push_back(static_cast<double>(r.chunk.peak_buffered_bytes) / 1e6);
            hits.push_back(ratio(static_cast<double>(r.chunk.buffers_recycled),
                                 static_cast<double>(r.chunk.buffers_recycled +
                                                     r.chunk.buffers_allocated)));
        }
        set("pe.peak_buffered_mb", median(peak));
        set("pe.arena_hit_ratio", median(hits));

        // The bounded-memory user's cost: the same run under a 1 MiB window.
        Config bounded             = cfg;
        bounded.max_buffered_bytes = u64{1} << 20;
        bounded.spill_path         = dir + "/spill.tmp";
        Timed r;
        {
            Tracer::Scope span(tracer, "spill.file_1MiB");
            r = run_engine(bounded, kWorkers, Dest::File, dir, ref);
        }
        check("spill run", r.error);
        remove_file(bounded.spill_path);
        set("spill.spilled_mb", static_cast<double>(r.stats.spilled_bytes) / 1e6);
        set("spill.edges_per_s", ratio(edges, r.seconds) / 1e6);
    }

    if (to_file) {
        set("sink.write_ns_per_edge", (file_all.seconds - null_all.seconds) * 1e9 / edges);
        std::string err;
        {
            Tracer::Scope span(tracer, "sink.write_buffer");
            set("sink.write_MBps", sink_write_mbps(cfg, chunks, dir, err));
        }
        check("sink write", err);
    }

    if (er) {
        std::string err;
        {
            Tracer::Scope span(tracer, "sampling.sorted_sample");
            set("sampling.ns_per_sample", sampler_ns_per_sample(cfg, chunks, err));
        }
        check("sampler", err);
    }

    set("ownership.kept_ratio", 1.0);
    if (cfg.edge_semantics == EdgeSemantics::exact_once && kagen::carries_duplicates(cfg.model)) {
        Config raw         = cfg;
        raw.edge_semantics = EdgeSemantics::as_generated;
        kagen::CountingSink kept(EdgeSemantics::exact_once);
        double filter_s = 0.0;
        u64 generated   = 0;
        {
            Tracer::Scope span(tracer, "ownership.filter");
            for (u64 c = 0; c < chunks; ++c) {
                TimedFilterSink sink(kagen::owned_vertex_intervals(cfg, c, chunks), kept);
                kagen::generate(raw, c, chunks, sink);
                sink.finish();
                filter_s += sink.seconds;
                generated += sink.edges_in;
            }
        }
        check("ownership filter", verify_count(kept.summarize(), ref));
        set("ownership.kept_ratio", ratio(static_cast<double>(kept.num_edges()), static_cast<double>(generated)));
        set("ownership.filter_ns_per_edge", filter_s * 1e9 / static_cast<double>(std::max<u64>(generated, 1)));
    }

    if (w.kind == Kind::Ranks) {
        std::vector<double> tax, imbalance, share;
        for (const auto& r : reps) {
            tax.push_back(r.wall_s - r.dist.seconds);
            double lo = 0.0, hi = 0.0;
            for (const auto& rank : r.dist.ranks) {
                lo = lo == 0.0 ? rank.stats.seconds : std::min(lo, rank.stats.seconds);
                hi = std::max(hi, rank.stats.seconds);
            }
            imbalance.push_back(ratio(hi, lo));
            share.push_back(ratio(static_cast<double>(r.dist.copy_file_range_bytes),
                                  static_cast<double>(r.dist.merged_bytes)));
        }
        set("dist.tax_s", median(tax));
        set("dist.rank_imbalance", median(imbalance));
        set("dist.copy_file_range_share", median(share));
        if (tcp_all.seconds == 0.0) {
            Tracer::Scope span(tracer, "net.tcp_loopback");
            tcp_all = run_tcp(cfg, kWorkers, dir, ref);
            check("tcp loopback", tcp_all.error);
        }
        set("net.tax_s", tcp_all.seconds - tcp_all.inner);
    }

    set("obs.overhead_pct", overhead_pct);
    out.metrics = std::move(m);
    return out;
}

} // namespace perfbench
