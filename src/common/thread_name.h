#ifndef SIREP_COMMON_THREAD_NAME_H_
#define SIREP_COMMON_THREAD_NAME_H_

#include <pthread.h>

#include <string>
#include <thread>

namespace sirep {

/// Names `thread` after its role ("dlv/3", "apply/0", "gcs-seq", ...),
/// so the per-thread entries in /proc/<pid>/task/*/{comm,stat} can be
/// attributed to a role. Called by the creator right after starting the
/// thread, so the name is in place before the creator returns. Linux
/// keeps at most 15 characters; longer names are cut to fit.
inline void NameThread(std::thread& thread, const std::string& name) {
  pthread_setname_np(thread.native_handle(), name.substr(0, 15).c_str());
}

}  // namespace sirep

#endif  // SIREP_COMMON_THREAD_NAME_H_
