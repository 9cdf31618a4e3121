#include "pawbench/src/node.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "pawbench/src/corpus.h"

namespace pawbench {

namespace fs = std::filesystem;
using paw::Result;
using paw::Status;

Result<std::unique_ptr<Node>> Node::Start(const NodeOptions& options) {
  std::error_code ec;
  fs::remove_all(options.dir, ec);
  fs::create_directories(options.dir, ec);
  if (ec) return Status::Internal("cannot create " + options.dir);

  std::unique_ptr<Node> node(new Node());
  node->dir_ = options.dir;
  node->args_ = {options.pawctl, "serve", options.dir, "port=0", "shards=4",
                 "workers=4", "writers=4", "sync=each",
                 "auth=" + options.auth};
  if (options.trace_all) node->args_.push_back("trace-sample=1");
  if (options.quorum_acks) node->args_.push_back("acks=quorum");
  if (options.follow_port > 0) {
    node->args_.push_back("follow=127.0.0.1:" +
                          std::to_string(options.follow_port));
    node->args_.push_back(std::string("follow-principal=") + kAdminName);
  }

  const int log_fd = ::open(options.log_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::Internal("cannot open " + options.log_path);
  std::vector<char*> argv;
  for (std::string& a : node->args_) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(log_fd);
  node->pid_ = pid;

  // The listening line carries the ephemeral port.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream log(options.log_path);
    std::string line;
    while (std::getline(log, line)) {
      int port = 0;
      if (std::sscanf(line.c_str(), "pawd listening on port %d", &port) ==
          1) {
        node->port_ = port;
        return node;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      node->pid_ = -1;
      return Status::Internal("pawd exited during startup; see " +
                              options.log_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Internal("pawd did not start listening; see " +
                          options.log_path);
}

Node::~Node() { Stop(); }

void Node::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double Node::cpu_seconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Node::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

uint64_t Node::wal_bytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file(ec) && name.rfind("wal-", 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace pawbench
