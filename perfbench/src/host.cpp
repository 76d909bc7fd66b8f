#include "host.hpp"

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace perfbench {
namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

std::string fs_type(const std::string& dir) {
    struct statfs st {};
    if (::statfs(dir.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0x01021994UL: return "tmpfs";
        case 0xEF53UL:     return "ext4";
        case 0x794c7630UL: return "overlayfs";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        case 0x65735546UL: return "fuse";
        case 0x6969UL:     return "nfs";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
            return buf;
        }
    }
}

} // namespace

HostFingerprint host_fingerprint(const std::string& output_dir) {
    HostFingerprint h;
    h.nproc     = ::sysconf(_SC_NPROCESSORS_ONLN);
    h.cpu_model = cpu_model();
    __builtin_cpu_init();
    h.avx512f = __builtin_cpu_supports("avx512f") != 0;
    struct utsname u {};
    h.kernel    = ::uname(&u) == 0 ? u.release : "unknown";
    h.output_fs = fs_type(output_dir);
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build_type = PERFBENCH_BUILD_TYPE;
    return h;
}

std::string HostFingerprint::json() const {
    return "{\"nproc\":" + std::to_string(nproc) + ",\"cpu_model\":" + json_quote(cpu_model) +
           ",\"avx512f\":" + (avx512f ? "true" : "false") + ",\"kernel\":" + json_quote(kernel) +
           ",\"output_fs\":" + json_quote(output_fs) + ",\"compiler\":" + json_quote(compiler) +
           ",\"build_type\":" + json_quote(build_type) + "}";
}

} // namespace perfbench
