// BatchServer: a single-threaded nonblocking epoll server speaking the
// engine/wire.h protocol. Each connection streams framed MultiSeek
// requests; the server runs every batch through a QueryEngine over the
// shared Db and streams framed Results responses back, in order.
//
// The event loop lives in a library class (not just the example binary)
// so the smoke test can run it in-process: Start() binds an ephemeral
// port, a background thread calls Serve(), clients connect over
// loopback, Stop() shuts the loop down from any thread.
//
// One event-loop thread issues every MultiSeek, and MultiSeek runs each
// batch in key order; concurrency across connections comes from
// interleaving batches, not from parallel query execution. (The Db
// itself is fully concurrent — writers and background maintenance may
// run alongside the serving thread; each batch resolves against one
// pinned MVCC view.)
//
// A connection's frames are handled after every read(), so its input
// buffer holds at most one partial frame plus one read even while a
// client pipelines requests; consumed input and written output are
// tracked by offset and dropped once per read and once per event, never
// per frame. Its output buffer is bounded too: while more than 1 MiB of
// replies is unsent the server stops reading that connection (drops
// EPOLLIN), so a client that pipelines and never reads is throttled by
// TCP flow control instead of growing server memory.

#ifndef PROTEUS_ENGINE_SERVER_H_
#define PROTEUS_ENGINE_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "engine/query_engine.h"
#include "lsm/db.h"
#include "util/status.h"

namespace proteus {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
  int backlog = 128;
};

class BatchServer {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t batches_served = 0;
    uint64_t queries_served = 0;
    uint64_t protocol_errors = 0;  // bad frames / unknown ops (conn closed)
  };

  /// The caller keeps `db` alive until after Serve() returns.
  BatchServer(Db* db, ServerOptions options);
  ~BatchServer();
  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Binds, listens, and sets up epoll. After OK, port() is the bound
  /// port and Serve() may be called (typically from another thread).
  Status Start();

  /// The bound port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Runs the event loop until Stop(). Returns the first fatal error
  /// (epoll failure), or OK on a clean Stop.
  Status Serve();

  /// Signals Serve() to drain and return. Safe from any thread, and
  /// before/without Serve().
  void Stop();

  /// Event-loop counters; read after Serve() returns (or from the loop
  /// thread).
  const Stats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;        // bytes read, not yet framed
    std::string out;       // encoded responses; the first out_done are sent
    size_t out_done = 0;
    bool close_after_write = false;  // protocol error: flush error frame, close
    size_t unsent() const { return out.size() - out_done; }
  };

  void AcceptPending();
  /// Reads until EAGAIN, handling the complete frames after each read,
  /// or until the unsent replies pass a fixed cap (1 MiB). False = close
  /// the conn.
  bool HandleReadable(Connection* conn);
  /// Handles every complete frame in `in`, then drops their bytes.
  void HandleFrames(Connection* conn);
  /// Runs one request frame through the engine, appends the response.
  bool HandleFrame(Connection* conn, std::string_view payload);
  /// Writes until EAGAIN or drained. False = close the conn.
  bool HandleWritable(Connection* conn);
  void UpdateEpoll(Connection* conn);
  void CloseConnection(int fd);
  void CloseAll();

  ServerOptions options_;
  QueryEngine engine_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop() -> event loop wakeup
  uint16_t port_ = 0;
  std::map<int, Connection> connections_;
  Stats stats_;
};

}  // namespace proteus

#endif  // PROTEUS_ENGINE_SERVER_H_
