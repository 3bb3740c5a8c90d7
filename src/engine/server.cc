#include "engine/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "engine/wire.h"

namespace proteus {
namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Unsent response bytes past which a connection's requests stay unread
// until the client drains them: a client that pipelines and never reads
// holds at most this much server memory (plus one read's replies).
constexpr size_t kMaxUnsentBytes = 1 << 20;

}  // namespace

BatchServer::BatchServer(Db* db, ServerOptions options)
    : options_(std::move(options)), engine_(db) {}

BatchServer::~BatchServer() {
  CloseAll();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status BatchServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host \"" + options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, options_.backlog) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl");

  if (::pipe(wake_fds_) < 0) return Errno("pipe");
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fds_[0];
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::OK();
}

Status BatchServer::Serve() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fds_[0]) {
        CloseAll();
        return Status::OK();
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this wake
      Connection* conn = &it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) alive = false;
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = HandleReadable(conn);
      }
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        alive = HandleWritable(conn);
      }
      if (alive) {
        UpdateEpoll(conn);
      } else {
        CloseConnection(fd);
      }
    }
  }
}

void BatchServer::Stop() {
  if (wake_fds_[1] >= 0) {
    char byte = 0;
    // A full pipe already wakes the loop; the result is irrelevant.
    [[maybe_unused]] ssize_t rc = ::write(wake_fds_[1], &byte, 1);
  }
}

void BatchServer::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: nothing to accept
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_[fd].fd = fd;
    ++stats_.connections_accepted;
  }
}

bool BatchServer::HandleReadable(Connection* conn) {
  char buf[64 << 10];
  while (!conn->close_after_write && conn->unsent() <= kMaxUnsentBytes) {
    ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->in.append(buf, static_cast<size_t>(r));
      HandleFrames(conn);
      continue;
    }
    if (r == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void BatchServer::HandleFrames(Connection* conn) {
  std::string_view rest = conn->in;
  std::string_view payload;
  while (!conn->close_after_write) {
    const WireFrameStatus status = WireExtractFrame(&rest, &payload);
    if (status == WireFrameStatus::kNeedMore) break;
    const char* error = nullptr;
    if (status == WireFrameStatus::kTooLarge) {
      error = "frame too large";
    } else if (!HandleFrame(conn, payload)) {
      error = "malformed request";
    }
    if (error != nullptr) {
      ++stats_.protocol_errors;
      WireEncodeErrorResponse(error, &conn->out);
      conn->close_after_write = true;
    }
  }
  conn->in.erase(0, conn->in.size() - rest.size());
}

bool BatchServer::HandleFrame(Connection* conn, std::string_view payload) {
  switch (WirePeekOp(payload)) {
    case kWireOpMultiSeek: {
      QueryBatch batch;
      if (!WireDecodeMultiSeekRequest(payload, &batch)) return false;
      std::vector<MultiSeekResult> results;
      engine_.Run(batch, &results);
      ++stats_.batches_served;
      stats_.queries_served += batch.size();
      WireEncodeResultsResponse(results, &conn->out);
      return true;
    }
    case kWireOpPing:
      WireEncodePongResponse(&conn->out);
      return true;
    default:
      return false;
  }
}

bool BatchServer::HandleWritable(Connection* conn) {
  while (conn->out_done < conn->out.size()) {
    ssize_t w = ::write(conn->fd, conn->out.data() + conn->out_done,
                        conn->out.size() - conn->out_done);
    if (w > 0) {
      conn->out_done += static_cast<size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return !conn->close_after_write;
}

void BatchServer::UpdateEpoll(Connection* conn) {
  // Flush inline first: most responses fit the socket buffer, so the
  // common case never registers EPOLLOUT. Then drop what was written,
  // once per event.
  if (!HandleWritable(conn)) {
    CloseConnection(conn->fd);
    return;
  }
  conn->out.erase(0, conn->out_done);
  conn->out_done = 0;
  // After a protocol error only the error frame is left to send; with
  // too much unsent, reading waits until the client drains it.
  epoll_event ev{};
  const bool read = !conn->close_after_write &&
                    conn->unsent() <= kMaxUnsentBytes;
  ev.events = read ? uint32_t{EPOLLIN} : 0u;
  if (!conn->out.empty()) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void BatchServer::CloseConnection(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);
}

void BatchServer::CloseAll() {
  while (!connections_.empty()) CloseConnection(connections_.begin()->first);
}

}  // namespace proteus
