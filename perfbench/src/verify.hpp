/// \file verify.hpp
/// \brief Output verification: every result the benchmark times is checked
///        against a reference computed outside timing from the per-chunk
///        public API, `kagen::generate(cfg, c, C)` for c = 0..C-1.
#pragma once

#include <string>
#include <vector>

#include "kagen.hpp"

namespace perfbench {

using kagen::u64;

/// Order-sensitive digest of a u64 word stream. Each step is a bijection
/// of the state for a fixed word and of the word for a fixed state, so any
/// single corrupted word (hence any one corrupted byte) changes the result.
struct Digest {
    u64 state = 0x9e3779b97f4a7c15ULL;
    void update(const u64* words, std::size_t count) {
        u64 h = state;
        for (std::size_t i = 0; i < count; ++i) {
            h = (h ^ words[i]) * 0xff51afd7ed558ccdULL;
            h ^= h >> 29;
        }
        state = h;
    }
};

/// The reference stream of one config, segmented at chunk boundaries: the
/// digest and edge count of each chunk's `kagen::generate` output, in
/// canonical chunk order.
struct Reference {
    std::vector<u64> chunk_edges;
    std::vector<u64> chunk_digest;
    u64 total_edges = 0;
    kagen::CountingSummary count; ///< what a CountingSink over the stream reports
};

/// Generates the reference of `cfg` over `num_chunks` chunks on `threads`
/// plain threads (no library pool involved).
Reference compute_reference(const kagen::Config& cfg, u64 num_chunks, unsigned threads);

/// Checks a binary edge file (u64 count header + u64 pairs) against `ref`:
/// size, header and every chunk's digest. Returns "" when it matches, else
/// a description of the first mismatch.
std::string verify_file(const std::string& path, const Reference& ref, unsigned threads);

/// Checks a counting summary against `ref`; "" when it matches.
std::string verify_count(const kagen::CountingSummary& got, const Reference& ref);

/// Proves that the verifiers catch corruption: builds a small correct file
/// and summary, checks that both pass, then that a one-byte flip in the
/// payload, a one-byte flip in the header and an off-by-one count each
/// fail. Returns "" when every expectation holds.
std::string self_test(const std::string& dir);

} // namespace perfbench
