// Shared main of every test binary: gtest's own flags, then the
// configuration-variant flags documented in test_variant.h. An unknown
// flag fails the run, so a mistyped variant cannot silently test the
// defaults.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "test_variant.h"

namespace sirep::test {
namespace {

cluster::ClusterOptions& Variant() {
  static cluster::ClusterOptions options;
  return options;
}

/// Value of `--name=value` in `arg`, or null when `arg` is another flag.
const char* FlagValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return nullptr;
  return arg + len + 1;
}

bool ParseVariantFlag(const char* arg) {
  if (const char* v = FlagValue(arg, "--transport")) {
    if (std::strcmp(v, "tcp") == 0) {
      Variant().gcs.transport = gcs::TransportKind::kTcp;
      return true;
    }
    return std::strcmp(v, "inproc") == 0;
  }
  if (const char* v = FlagValue(arg, "--apply-threads")) {
    Variant().replica.applier_threads = std::strtoull(v, nullptr, 10);
    return true;
  }
  return false;
}

}  // namespace

cluster::ClusterOptions VariantOptions() { return Variant(); }

}  // namespace sirep::test

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (!sirep::test::ParseVariantFlag(argv[i])) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
