#ifndef LSMSSD_BENCH_HARNESS_SOURCE_COMMIT_H_
#define LSMSSD_BENCH_HARNESS_SOURCE_COMMIT_H_

#include <string>

namespace lsmssd::bench {

/// The git commit of the source tree the benches were built from, with
/// "-dirty" when tracked files differ from it; "unknown" when that tree
/// is not a git checkout of its own. Recorded in BENCH_*.json.
std::string SourceCommit();

}  // namespace lsmssd::bench

#endif  // LSMSSD_BENCH_HARNESS_SOURCE_COMMIT_H_
