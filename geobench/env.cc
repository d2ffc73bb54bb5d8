#include "env.h"

#include <malloc.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/cpu_dispatch.h"

#ifndef GEOBENCH_BUILD_TYPE
#define GEOBENCH_BUILD_TYPE "unknown"
#endif

namespace geobench {
namespace {

// Reads "<key>: <number>" from a /proc file.
uint64_t ProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

// Sanitizers announce themselves by macro (GCC) or __has_feature (Clang).
std::string SanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "clang";
#else
  return "";
#endif
#else
  return "";
#endif
}

struct FsName {
  long magic;
  const char* name;
  bool in_memory;
};

constexpr FsName kFilesystems[] = {
    {0xEF53, "ext2/3/4", false},      {0x58465342, "xfs", false},
    {0x9123683E, "btrfs", false},     {0x794c7630, "overlayfs", false},
    {0x2fc12fc1, "zfs", false},       {0xF2F52010, "f2fs", false},
    {0x6969, "nfs", false},           {0x01021994, "tmpfs", true},
    {static_cast<long>(0x858458f6), "ramfs", true},
};

}  // namespace

EnvStamp StampEnvironment(const std::string& data_dir) {
  EnvStamp stamp;
  stamp.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  stamp.build_type = GEOBENCH_BUILD_TYPE;
#ifdef NDEBUG
  stamp.ndebug = true;
#endif
  stamp.sanitizer = SanitizerName();
  stamp.simd_tier = geolic::simd::TierName(geolic::simd::ActiveTier());
  stamp.data_dir = data_dir;
  struct statfs fs {};
  if (statfs(data_dir.c_str(), &fs) == 0) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%lx",
                  static_cast<unsigned long>(fs.f_type));
    stamp.data_fs = hex;
    for (const FsName& known : kFilesystems) {
      if (static_cast<long>(fs.f_type) == known.magic) {
        stamp.data_fs = known.name;
        stamp.data_fs_in_memory = known.in_memory;
      }
    }
  } else {
    stamp.data_fs = "unknown";
  }
  return stamp;
}

std::string EnvStamp::Refusal() const {
  if (build_type != "Release" || !ndebug) {
    return "refusing to time a non-Release build (" + build_type + ")";
  }
  if (!sanitizer.empty()) {
    return "refusing to time a " + sanitizer + "-sanitizer build";
  }
  if (data_fs_in_memory) {
    return "refusing to place journals and spills on " + data_fs + " (" +
           data_dir + "): the catalog measures ~15x faster in memory";
  }
  return "";
}

std::string EnvStamp::ToJson(int threads_peak, int connections) const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"build_type\": \"" << build_type
      << "\", \"sanitizer\": \"" << sanitizer << "\", \"simd_tier\": \""
      << simd_tier << "\", \"threads_peak\": " << threads_peak
      << ", \"client_connections\": " << connections << ", \"data_fs\": \""
      << data_fs << "\"}";
  return out.str();
}

int LiveThreads() {
  return static_cast<int>(ProcField("/proc/self/status", "Threads"));
}

uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

uint64_t RssKib() { return ProcField("/proc/self/status", "VmRSS"); }

uint64_t PeakRssKib() { return ProcField("/proc/self/status", "VmHWM"); }

uint64_t WriteBytes() { return ProcField("/proc/self/io", "write_bytes"); }

}  // namespace geobench
