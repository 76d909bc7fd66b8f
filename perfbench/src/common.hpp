/// \file common.hpp
/// \brief Shared helpers of the repo benchmark: the worker count, the clock,
///        JSON quoting, the benchmark's own span recorder (Chrome
///        trace_event output), order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Workers of every workload: simulated PEs P, pool threads and forked
/// ranks alike (the benchmark host's nproc).
constexpr unsigned kWorkers = 4;

/// `s` as a JSON string literal (control characters dropped).
inline std::string json_quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out + "\"";
}

inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Spans the benchmark records around its calls into the library's public
/// API. Kept in memory and written once, at the end of a traced run, as a
/// Chrome trace_event JSON file (chrome://tracing, Perfetto). Each span
/// names the span that was open when it began, so a layer's self time is
/// its duration minus that of its children.
class Tracer {
public:
    struct Event {
        std::string name;
        double begin = 0.0;
        double end   = 0.0;
        int parent   = -1;
    };

    class Scope {
    public:
        Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
            index_ = static_cast<int>(tracer_.events_.size());
            tracer_.events_.push_back({std::move(name), now_s(), 0.0, tracer_.open_});
            tracer_.open_ = index_;
        }
        ~Scope() {
            Event& e      = tracer_.events_[static_cast<std::size_t>(index_)];
            e.end         = now_s();
            tracer_.open_ = e.parent;
        }
        Scope(const Scope&)            = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        int index_ = -1;
    };

    /// Writes the spans as Chrome complete events ("ph":"X", µs).
    bool write_chrome(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        const double t0 = events_.empty() ? 0.0 : events_.front().begin;
        std::fprintf(f, "{\"traceEvents\":[\n");
        std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                        "\"args\":{\"name\":\"perfbench\"}}");
        for (const Event& e : events_) {
            const std::string parent =
                e.parent < 0 ? "" : events_[static_cast<std::size_t>(e.parent)].name;
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}",
                         e.name.c_str(), (e.begin - t0) * 1e6, (e.end - e.begin) * 1e6,
                         parent.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    std::vector<Event> events_;
    int open_ = -1;
};

} // namespace perfbench
