#include "sim/shard_comm.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace mmn::sim::shard_comm {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MMN_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed");
  MMN_REQUIRE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// One rank's view of the socketpair mesh: fd_[p] talks to rank p.
class SocketMesh final : public Transport {
 public:
  SocketMesh(unsigned rank, unsigned ranks, std::vector<int> fds)
      : rank_(rank), ranks_(ranks), fds_(std::move(fds)) {}

  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  ~SocketMesh() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  unsigned rank() const override { return rank_; }
  unsigned ranks() const override { return ranks_; }

  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override {
    MMN_REQUIRE(peer < ranks_ && peer != rank_ && fds_[peer] >= 0,
                "exchange() with an invalid peer rank");
    const int fd = fds_[peer];

    // Outgoing frame: [u64 length][payload].  The length prefix is staged
    // separately so the payload is never copied.
    std::uint64_t out_len = bytes;
    std::size_t sent_hdr = 0;
    std::size_t sent_body = 0;

    // Incoming frame, drained concurrently with the writes so the swap
    // cannot deadlock on full kernel buffers.
    std::uint8_t in_hdr[sizeof(std::uint64_t)];
    std::size_t got_hdr = 0;
    std::uint64_t in_len = 0;
    std::size_t got_body = 0;
    in.clear();

    for (;;) {
      const bool out_done = sent_hdr == sizeof(out_len) && sent_body == bytes;
      const bool in_done =
          got_hdr == sizeof(in_hdr) && got_body == in_len;
      if (out_done && in_done) break;

      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = static_cast<short>((out_done ? 0 : POLLOUT) |
                                      (in_done ? 0 : POLLIN));
      pfd.revents = 0;
      const int rc = ::poll(&pfd, 1, -1);
      if (rc < 0) {
        MMN_REQUIRE(errno == EINTR, "poll() failed during rank exchange");
        continue;
      }
      MMN_REQUIRE((pfd.revents & (POLLERR | POLLNVAL)) == 0,
                  "rank exchange socket error");

      if (!out_done && (pfd.revents & (POLLOUT | POLLHUP)) != 0) {
        if (sent_hdr < sizeof(out_len)) {
          const auto* p = reinterpret_cast<const std::uint8_t*>(&out_len);
          const ssize_t k = ::send(fd, p + sent_hdr, sizeof(out_len) - sent_hdr,
                                   MSG_NOSIGNAL);
          if (k > 0) {
            sent_hdr += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        } else if (sent_body < bytes) {
          const ssize_t k =
              ::send(fd, data + sent_body, bytes - sent_body, MSG_NOSIGNAL);
          if (k > 0) {
            sent_body += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        }
      }

      if (!in_done && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        if (got_hdr < sizeof(in_hdr)) {
          const ssize_t k =
              ::recv(fd, in_hdr + got_hdr, sizeof(in_hdr) - got_hdr, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_hdr += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
            if (got_hdr == sizeof(in_hdr)) {
              std::memcpy(&in_len, in_hdr, sizeof(in_len));
              in.resize(in_len);
            }
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        } else if (got_body < in_len) {
          const ssize_t k =
              ::recv(fd, in.data() + got_body, in_len - got_body, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_body += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        }
      }
    }
  }

  std::uint64_t bytes_out() const override { return bytes_out_; }
  std::uint64_t bytes_in() const override { return bytes_in_; }

 private:
  unsigned rank_;
  unsigned ranks_;
  std::vector<int> fds_;  ///< indexed by peer rank; -1 for self
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
};

/// One failed rank's record on the report pipe; small enough that a write
/// is atomic (PIPE_BUF), so concurrent failures never interleave.
struct FailureRecord {
  std::uint32_t rank = 0;
  char what[252] = {};
};
static_assert(sizeof(FailureRecord) <= PIPE_BUF);

/// Prints the failure to stderr and files it on the report pipe.
void report_failure(int fd, unsigned rank, const char* what) {
  std::fprintf(stderr, "mmn: rank %u failed: %s\n", rank, what);
  FailureRecord rec;
  rec.rank = rank;
  std::strncpy(rec.what, what, sizeof(rec.what) - 1);
  [[maybe_unused]] const ssize_t k = ::write(fd, &rec, sizeof(rec));
}

/// Names the rank that failed first — its exit code or signal, and its
/// message — or returns "" when every rank succeeded.  A rank killed by a
/// signal filed no record and is never a knock-on failure (those exit 1
/// after filing one), so it comes first; then the first record on the pipe
/// (all write ends closed, so one read drains a whole atomic record); then
/// any other abnormal exit.  `status` holds each child's wait status.
std::string failure_verdict(int fd, const std::vector<int>& status) {
  FailureRecord rec;
  ssize_t got;
  do {
    got = ::read(fd, &rec, sizeof(rec));
  } while (got < 0 && errno == EINTR);
  ::close(fd);
  const bool reported = got == static_cast<ssize_t>(sizeof(rec));
  int culprit = -1;
  for (unsigned r = 1; r < status.size() && culprit < 0; ++r) {
    if (WIFSIGNALED(status[r])) culprit = static_cast<int>(r);
  }
  if (culprit < 0 && reported) culprit = static_cast<int>(rec.rank);
  for (unsigned r = 1; r < status.size() && culprit < 0; ++r) {
    if (!WIFEXITED(status[r]) || WEXITSTATUS(status[r]) != 0) {
      culprit = static_cast<int>(r);
    }
  }
  if (culprit < 0) return {};
  const int st = status[culprit];
  std::string verdict = "rank " + std::to_string(culprit) + " of " +
                        std::to_string(status.size()) + " failed";
  if (WIFSIGNALED(st)) {
    verdict += " (killed by signal " + std::to_string(WTERMSIG(st)) + ")";
  } else if (culprit != 0) {
    verdict += " (exit code " + std::to_string(WEXITSTATUS(st)) + ")";
  }
  if (reported && static_cast<int>(rec.rank) == culprit) {
    verdict += std::string(": ") + rec.what;
  }
  return verdict;
}

}  // namespace

void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn) {
  MMN_REQUIRE(ranks >= 1 && ranks <= 64, "ranks must be in [1, 64]");
  // Full mesh, built before any fork so every rank inherits its endpoints:
  // pair (i, j), i < j, gets one socketpair; ends[i][j] is i's end.
  std::vector<std::vector<int>> ends(ranks, std::vector<int>(ranks, -1));
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = i + 1; j < ranks; ++j) {
      int sp[2];
      MMN_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) == 0,
                  "socketpair() failed building the rank mesh");
      set_nonblocking(sp[0]);
      set_nonblocking(sp[1]);
      ends[i][j] = sp[0];
      ends[j][i] = sp[1];
    }
  }
  // Failure reports, one atomic record per failed rank, in the order the
  // ranks failed: a rank writes its record before its mesh closes, and its
  // peers only fail (on the closed sockets) after that.
  int reports[2];
  MMN_REQUIRE(::pipe(reports) == 0, "pipe() failed building the rank mesh");

  unsigned my_rank = 0;
  std::vector<pid_t> children;
  children.reserve(ranks - 1);
  for (unsigned r = 1; r < ranks; ++r) {
    const pid_t pid = ::fork();
    MMN_REQUIRE(pid >= 0, "fork() failed spawning rank");
    if (pid == 0) {
      my_rank = r;
      children.clear();
      break;
    }
    children.push_back(pid);
  }

  // Keep only this rank's endpoints; close the rest of the mesh.
  std::vector<int> fds(ranks, -1);
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = 0; j < ranks; ++j) {
      if (ends[i][j] < 0) continue;
      if (i == my_rank) {
        fds[j] = ends[i][j];
      } else {
        ::close(ends[i][j]);
      }
    }
  }
  if (my_rank != 0) ::close(reports[0]);

  bool failed = true;
  {
    SocketMesh mesh(my_rank, ranks, std::move(fds));
    try {
      fn(mesh);
      failed = false;
    } catch (const std::exception& e) {
      report_failure(reports[1], my_rank, e.what());
    } catch (...) {
      report_failure(reports[1], my_rank, "unknown exception");
    }
  }
  ::close(reports[1]);

  if (my_rank != 0) {
    // Never return into the caller's code: skip atexit/static destructors
    // too — the child shares the parent's stdio and test/bench harness
    // state, none of which it owns.
    ::_exit(failed ? 1 : 0);
  }
  std::vector<int> status(ranks, 0);
  for (unsigned r = 1; r < ranks; ++r) {
    while (::waitpid(children[r - 1], &status[r], 0) < 0) {
      MMN_ASSERT(errno == EINTR, "waitpid() failed reaping a rank");
    }
  }
  const std::string verdict = failure_verdict(reports[0], status);
  if (!verdict.empty()) throw std::runtime_error(verdict);
}

}  // namespace mmn::sim::shard_comm
