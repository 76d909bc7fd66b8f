#include "verify.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

namespace perfbench {
namespace {

/// Digests and counts one chunk's stream as `kagen::generate` emits it.
class DigestSink final : public kagen::EdgeSink {
public:
    Digest digest;
    u64 edges      = 0;
    u64 self_loops = 0;

protected:
    void consume(const kagen::Edge* e, std::size_t count) override {
        static_assert(sizeof(kagen::Edge) == 2 * sizeof(u64));
        digest.update(reinterpret_cast<const u64*>(e), 2 * count);
        edges += count;
        for (std::size_t i = 0; i < count; ++i) self_loops += e[i].first == e[i].second;
    }
};

/// Runs fn(i) for i in [0, n) on up to `threads` threads, round-robin.
template <typename Fn>
void parallel_indices(u64 n, unsigned threads, Fn&& fn) {
    const unsigned t = static_cast<unsigned>(std::max<u64>(1, std::min<u64>(threads, n)));
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(t);
    for (unsigned w = 0; w < t; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (u64 i = w; i < n; i += t) fn(i);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (auto& th : pool) th.join();
    for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

bool pread_exact(int fd, void* buf, std::size_t len, off_t off) {
    auto* p = static_cast<char*>(buf);
    while (len > 0) {
        const ssize_t got = ::pread(fd, p, len, off);
        if (got <= 0) return false;
        p += got;
        off += got;
        len -= static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace

Reference compute_reference(const kagen::Config& cfg, u64 num_chunks, unsigned threads) {
    Reference ref;
    ref.chunk_edges.assign(num_chunks, 0);
    ref.chunk_digest.assign(num_chunks, 0);
    std::vector<u64> loops(num_chunks, 0);
    parallel_indices(num_chunks, threads, [&](u64 c) {
        DigestSink sink;
        kagen::generate(cfg, c, num_chunks, sink);
        sink.flush();
        ref.chunk_edges[c]  = sink.edges;
        ref.chunk_digest[c] = sink.digest.state;
        loops[c]            = sink.self_loops;
    });
    ref.count.semantics = cfg.edge_semantics;
    for (u64 c = 0; c < num_chunks; ++c) {
        ref.total_edges += ref.chunk_edges[c];
        ref.count.num_self_loops += loops[c];
    }
    ref.count.num_edges = ref.total_edges;
    return ref;
}

std::string verify_file(const std::string& path, const Reference& ref, unsigned threads) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return "cannot open " + path;
    struct FdCloser {
        int fd;
        ~FdCloser() { ::close(fd); }
    } closer{fd};
    struct stat st {};
    if (::fstat(fd, &st) != 0) return "cannot stat " + path;
    const u64 want_size = 8 + 16 * ref.total_edges;
    if (static_cast<u64>(st.st_size) != want_size) {
        return path + ": size " + std::to_string(st.st_size) + ", want " +
               std::to_string(want_size);
    }
    u64 header = 0;
    if (!pread_exact(fd, &header, sizeof header, 0)) return path + ": short header";
    if (header != ref.total_edges) {
        return path + ": header count " + std::to_string(header) + ", want " +
               std::to_string(ref.total_edges);
    }
    const u64 chunks = ref.chunk_edges.size();
    std::vector<u64> offset(chunks, 8);
    for (u64 c = 1; c < chunks; ++c) offset[c] = offset[c - 1] + 16 * ref.chunk_edges[c - 1];
    std::vector<std::string> errors(chunks);
    parallel_indices(chunks, threads, [&](u64 c) {
        constexpr std::size_t kBlockWords = std::size_t{1} << 19; // 4 MiB
        std::unique_ptr<u64[]> block(new u64[kBlockWords]);
        Digest d;
        u64 words = 2 * ref.chunk_edges[c];
        off_t off = static_cast<off_t>(offset[c]);
        while (words > 0) {
            const std::size_t n = static_cast<std::size_t>(std::min<u64>(words, kBlockWords));
            if (!pread_exact(fd, block.get(), n * 8, off)) {
                errors[c] = "read failed";
                return;
            }
            d.update(block.get(), n);
            words -= n;
            off += static_cast<off_t>(n * 8);
        }
        if (d.state != ref.chunk_digest[c]) {
            errors[c] = "chunk " + std::to_string(c) + " differs from the reference stream";
        }
    });
    for (const auto& e : errors) {
        if (!e.empty()) return path + ": " + e;
    }
    return "";
}

std::string verify_count(const kagen::CountingSummary& got, const Reference& ref) {
    if (got == ref.count) return "";
    return "counting summary '" + got.str() + "', want '" + ref.count.str() + "'";
}

std::string self_test(const std::string& dir) {
    kagen::Config cfg;
    cfg.model = kagen::Model::GnmDirected;
    cfg.n     = 1000;
    cfg.m     = 20000;
    cfg.seed  = 3;
    const u64 chunks    = 4;
    const Reference ref = compute_reference(cfg, chunks, 2);
    const std::string path = dir + "/self_test.bin";
    {
        kagen::BinaryFileSink sink(path);
        for (u64 c = 0; c < chunks; ++c) kagen::generate(cfg, c, chunks, sink);
        sink.finish();
    }
    auto flip = [&](off_t pos) { // xor one byte in place
        const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd < 0) return false;
        unsigned char b = 0;
        bool ok = ::pread(fd, &b, 1, pos) == 1;
        b ^= 0x01;
        ok = ok && ::pwrite(fd, &b, 1, pos) == 1;
        ::close(fd);
        return ok;
    };
    std::string failure;
    const off_t payload_pos = static_cast<off_t>(8 + 16 * (ref.total_edges / 2) + 5);
    if (!verify_file(path, ref, 2).empty()) {
        failure = "a correct file was rejected";
    } else if (!flip(payload_pos) || verify_file(path, ref, 2).empty()) {
        failure = "a one-byte payload corruption was not caught";
    } else if (!flip(payload_pos) || !verify_file(path, ref, 2).empty()) {
        failure = "restoring the corrupted byte did not restore the file";
    } else if (!flip(3) || verify_file(path, ref, 2).empty()) {
        failure = "a one-byte header corruption was not caught";
    }
    ::unlink(path.c_str());
    if (!failure.empty()) return failure;

    kagen::CountingSummary count = ref.count;
    if (!verify_count(count, ref).empty()) return "a correct counting summary was rejected";
    count.num_edges += 1;
    if (verify_count(count, ref).empty()) return "an off-by-one edge count was not caught";
    return "";
}

} // namespace perfbench
