// The environment a run was measured in, the guard that refuses to time
// an unfit build or filesystem, and the /proc readings the metrics use.
#ifndef GEOBENCH_ENV_H_
#define GEOBENCH_ENV_H_

#include <cstdint>
#include <string>

namespace geobench {

struct EnvStamp {
  int nproc = 0;
  std::string build_type;
  bool ndebug = false;
  std::string sanitizer;  // Empty when the build is not instrumented.
  std::string simd_tier;
  std::string data_dir;
  std::string data_fs;  // Filesystem type of data_dir.
  bool data_fs_in_memory = false;

  // Empty when the run may be timed; otherwise why not.
  std::string Refusal() const;
  // One-line JSON object.
  std::string ToJson(int threads_peak, int connections) const;
};

EnvStamp StampEnvironment(const std::string& data_dir);

// Live threads of this process (/proc/self/status).
int LiveThreads();
// Bytes the process holds allocated from malloc now (in use in the
// arenas plus mmapped chunks): unlike the resident set, this does not
// count free memory the allocator keeps.
uint64_t HeapBytes();
// Resident set now and its peak (VmRSS, VmHWM), in KiB.
uint64_t RssKib();
uint64_t PeakRssKib();
// Bytes this process caused to be written to storage (/proc/self/io).
uint64_t WriteBytes();

}  // namespace geobench

#endif  // GEOBENCH_ENV_H_
