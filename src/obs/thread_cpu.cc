#include "obs/thread_cpu.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace sirep::obs {

namespace {

struct TaskCpu {
  std::string role;
  uint64_t ticks = 0;
  uint64_t ctx_switches = 0;
};

/// Reads one thread's directory under /proc/self/task; false if the thread
/// exited before both files were read.
bool ReadTask(const std::filesystem::path& task, TaskCpu* out) {
  std::ifstream stat_file(task / "stat");
  std::string stat;
  if (!std::getline(stat_file, stat)) return false;
  // "<tid> (<name>) <state> ...": the name may hold spaces and
  // parentheses, so the fields after it start at the last ')'.
  const size_t open = stat.find('(');
  const size_t close = stat.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open || close + 2 > stat.size()) {
    return false;
  }
  const std::string name = stat.substr(open + 1, close - open - 1);
  out->role = name.substr(0, name.find('/'));
  // stat(5) fields 3 (state) to 13 come first, then utime and stime.
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  uint64_t utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return false;
  out->ticks = utime + stime;

  std::ifstream status(task / "status");
  std::string line;
  int found = 0;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
        line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      out->ctx_switches += std::strtoull(
          line.c_str() + line.find(':') + 1, nullptr, 10);
      ++found;
    }
  }
  return found == 2;
}

}  // namespace

std::map<std::string, RoleCpu> ReadThreadCpuByRole() {
  const uint64_t ns_per_tick =
      1'000'000'000ULL / static_cast<uint64_t>(sysconf(_SC_CLK_TCK));
  std::map<std::string, RoleCpu> roles;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    TaskCpu task;
    if (!ReadTask(it->path(), &task)) continue;
    RoleCpu& role = roles[task.role];
    role.cpu_ns += task.ticks * ns_per_tick;
    role.ctx_switches += task.ctx_switches;
    ++role.threads;
  }
  return roles;
}

}  // namespace sirep::obs
