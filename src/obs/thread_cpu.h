#ifndef SIREP_OBS_THREAD_CPU_H_
#define SIREP_OBS_THREAD_CPU_H_

#include <cstdint>
#include <map>
#include <string>

namespace sirep::obs {

/// CPU time and context switches summed over the threads of one role.
struct RoleCpu {
  uint64_t cpu_ns = 0;        // utime + stime
  uint64_t ctx_switches = 0;  // voluntary + nonvoluntary
  int threads = 0;
};

/// Reads utime + stime (/proc/self/task/<tid>/stat) and the voluntary and
/// nonvoluntary context switches (.../status) of every thread of this
/// process, and sums them by role: the thread's name up to its first '/'
/// ("apply/3" -> "apply", "gcs-seq" -> "gcs-seq"; see NameThread). A
/// thread that exits while it is read is skipped. Times come in clock
/// ticks (usually 10 ms).
///
/// An exited thread's time is gone from /proc/self/task, and so from
/// every later reading. So take both readings of a difference while the
/// measured threads still run: read after a benchmark's clients have
/// stopped, the second reading has no clients, and the difference loses
/// their time.
std::map<std::string, RoleCpu> ReadThreadCpuByRole();

}  // namespace sirep::obs

#endif  // SIREP_OBS_THREAD_CPU_H_
