#ifndef SIREP_TESTS_TEST_VARIANT_H_
#define SIREP_TESTS_TEST_VARIANT_H_

#include "cluster/cluster.h"

namespace sirep::test {

/// ClusterOptions defaults with this run's configuration variant applied.
/// Every test binary's main (test_main.cc) accepts, after the gtest
/// flags:
///
///   --transport=inproc|tcp     GroupOptions::transport
///   --apply-threads=N          ReplicaOptions::applier_threads
///
/// ctest runs some suites a second time with these flags (see
/// tests/CMakeLists.txt); a suite opts in by building its clusters from
/// VariantOptions() instead of a default-constructed ClusterOptions.
/// Fields a test then sets itself win over the variant.
cluster::ClusterOptions VariantOptions();

}  // namespace sirep::test

#endif  // SIREP_TESTS_TEST_VARIANT_H_
