/// \file host.hpp
/// \brief Host fingerprint attached to every benchmark result, so results
///        from different kinds of host are never compared silently.
#pragma once

#include <string>

namespace perfbench {

struct HostFingerprint {
    long nproc = 0;
    std::string cpu_model;
    bool avx512f = false;
    std::string kernel;
    std::string output_fs; ///< filesystem type of the output directory
    std::string compiler;
    std::string build_type;

    /// One JSON object, keys in a fixed order.
    std::string json() const;
};

HostFingerprint host_fingerprint(const std::string& output_dir);

} // namespace perfbench
