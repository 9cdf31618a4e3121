#ifndef PAWBENCH_SRC_NODE_H_
#define PAWBENCH_SRC_NODE_H_

/// \file node.h
/// \brief One pawd child process (`pawctl serve`), so the server's RSS
/// and CPU stay separate from the load generator's.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace pawbench {

struct NodeOptions {
  /// The pawctl binary.
  std::string pawctl;
  /// Store directory; recreated empty by `Start`.
  std::string dir;
  /// The `auth=` principal list.
  std::string auth;
  /// trace-sample=1 (traced runs); default sampling otherwise.
  bool trace_all = false;
  /// acks=quorum (replicated leader).
  bool quorum_acks = false;
  /// Leader port to follow; 0 = run as a leader.
  int follow_port = 0;
  /// Where pawd's stdout and stderr go.
  std::string log_path;
};

class Node {
 public:
  /// Recreates `options.dir`, launches pawd on it and waits for its
  /// listening line.
  static paw::Result<std::unique_ptr<Node>> Start(const NodeOptions& options);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  /// Stops pawd if still running.
  ~Node();

  /// SIGTERM, then waits for exit (SIGKILL after 20 s). Idempotent.
  void Stop();

  int port() const { return port_; }
  /// The `pawctl serve` arguments, for the result's host stamp.
  const std::vector<std::string>& args() const { return args_; }
  /// pawd user + system CPU seconds so far.
  double cpu_seconds() const;
  /// pawd peak resident set (VmHWM), MiB.
  double peak_rss_mb() const;
  /// Bytes in the store's WAL segment files.
  uint64_t wal_bytes() const;

 private:
  Node() = default;

  pid_t pid_ = -1;
  int port_ = 0;
  std::string dir_;
  std::vector<std::string> args_;
};

}  // namespace pawbench

#endif  // PAWBENCH_SRC_NODE_H_
