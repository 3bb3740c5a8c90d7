// BatchServer smoke tests: concurrent loopback connections round-trip
// MultiSeek batches through the wire protocol and match direct Seek
// results; a client that pipelines hundreds of batches without waiting
// gets every reply, in order; a client that pipelines and never reads
// is throttled once a bounded amount of replies waits for it; protocol
// errors get an error frame and a closed connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/server.h"
#include "engine/wire.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"
#include "util/serial.h"

namespace proteus {
namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t w = ::write(fd, data.data(), data.size());
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(w));
  }
  return true;
}

bool RecvFrame(int fd, std::string* payload) {
  char header[4];
  size_t got = 0;
  while (got < 4) {
    ssize_t r = ::read(fd, header + got, 4 - got);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  const uint32_t length = LoadFixed32(header);
  if (length > kWireMaxFrameBytes) return false;
  payload->resize(length);
  size_t off = 0;
  while (off < length) {
    ssize_t r = ::read(fd, payload->data() + off, length - off);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(r);
  }
  return true;
}

// Batches of `batch_size` random ranges over the server's key space.
std::vector<QueryBatch> MakePlan(uint64_t seed, int batches,
                                 size_t batch_size) {
  Rng rng(seed);
  std::vector<QueryBatch> plan;
  for (int b = 0; b < batches; ++b) {
    QueryBatch batch;
    for (size_t i = 0; i < batch_size; ++i) {
      uint64_t k = rng.NextBelow(4000) * 1000;
      uint64_t span = rng.NextBelow(5000);
      batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                       EncodeKeyBE(k + span)});
    }
    plan.push_back(std::move(batch));
  }
  return plan;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    DbOptions options;
    options.dir = "/tmp/proteus_server_test";
    options.memtable_bytes = 64 << 10;
    options.sst_target_bytes = 128 << 10;
    options.block_size = 1024;
    options.filter_policy = MakeFilterPolicy("proteus:bpk=14");
    auto [db, create_status] = Db::Create(options);
    ASSERT_TRUE(create_status.ok()) << create_status.ToString();
    db_ = std::move(db);
    Rng rng(31);
    for (int op = 0; op < 8000; ++op) {
      uint64_t k = rng.NextBelow(4000) * 1000;
      ASSERT_TRUE(
          db_->Put(EncodeKeyBE(k), "v" + std::to_string(op)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());

    ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_ = std::make_unique<BatchServer>(db_.get(), server_options);
    Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_NE(server_->port(), 0);
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      if (serve_thread_.joinable()) serve_thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
  }

  std::unique_ptr<Db> db_;
  std::unique_ptr<BatchServer> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(ServerTest, PingPong) {
  StartServer();
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string request, payload;
  WireEncodePingRequest(&request);
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpPong);
  ::close(fd);
}

TEST_F(ServerTest, EightConcurrentConnectionsMatchDirectSeek) {
  StartServer();
  constexpr int kConnections = 8;
  constexpr int kBatchesPerConnection = 12;
  constexpr size_t kBatchSize = 48;
  std::atomic<int> failures{0};
  std::vector<std::vector<QueryBatch>> plans(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    plans[c] = MakePlan(100 + c, kBatchesPerConnection, kBatchSize);
  }

  // All clients hold their connections open concurrently and stream
  // batches; the single-threaded server interleaves them.
  std::vector<std::vector<std::vector<MultiSeekResult>>> replies(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      int fd = ConnectLoopback(server_->port());
      if (fd < 0) {
        ++failures;
        return;
      }
      for (const QueryBatch& batch : plans[c]) {
        std::string request, payload;
        WireEncodeMultiSeekRequest(batch, &request);
        std::vector<MultiSeekResult> results;
        if (!SendAll(fd, request) || !RecvFrame(fd, &payload) ||
            !WireDecodeResultsResponse(payload, &results) ||
            results.size() != batch.size()) {
          ++failures;
          break;
        }
        replies[c].push_back(std::move(results));
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Serving is done; verify every reply against direct Seek on the DB.
  for (int c = 0; c < kConnections; ++c) {
    ASSERT_EQ(replies[c].size(), plans[c].size()) << "connection " << c;
    for (size_t b = 0; b < plans[c].size(); ++b) {
      for (size_t i = 0; i < plans[c][b].size(); ++i) {
        SeekResult direct = db_->Seek(plans[c][b][i].lo, plans[c][b][i].hi);
        const MultiSeekResult& r = replies[c][b][i];
        ASSERT_EQ(r.found, direct.found) << "conn " << c << " batch " << b;
        if (direct.found) {
          ASSERT_EQ(r.key, direct.key);
          ASSERT_EQ(r.value, direct.value);
        }
      }
    }
  }
  EXPECT_GE(server_->stats().connections_accepted,
            static_cast<uint64_t>(kConnections));
  EXPECT_EQ(server_->stats().queries_served,
            static_cast<uint64_t>(kConnections) * kBatchesPerConnection *
                kBatchSize);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ServerTest, PipelinedBatchesAnswerInOrder) {
  StartServer();
  constexpr int kBatches = 500;
  constexpr size_t kBatchSize = 48;
  const std::vector<QueryBatch> plan = MakePlan(200, kBatches, kBatchSize);
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);

  // The writer never waits for a reply, and cuts its stream into pieces
  // that do not line up with frames, so the server sees many frames per
  // read and frames split across reads.
  std::atomic<bool> write_ok{true};
  std::thread writer([&] {
    std::string stream;
    for (const QueryBatch& batch : plan) {
      WireEncodeMultiSeekRequest(batch, &stream);
    }
    constexpr size_t kPiece = 1021;
    for (size_t off = 0; off < stream.size(); off += kPiece) {
      if (!SendAll(fd, std::string_view(stream).substr(off, kPiece))) {
        write_ok = false;
        return;
      }
    }
  });
  std::vector<std::vector<MultiSeekResult>> replies;
  std::thread reader([&] {
    std::string payload;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<MultiSeekResult> results;
      if (!RecvFrame(fd, &payload) ||
          !WireDecodeResultsResponse(payload, &results)) {
        return;
      }
      replies.push_back(std::move(results));
    }
  });
  writer.join();
  reader.join();
  ::close(fd);
  ASSERT_TRUE(write_ok.load());
  ASSERT_EQ(replies.size(), plan.size());

  for (size_t b = 0; b < plan.size(); ++b) {
    ASSERT_EQ(replies[b].size(), plan[b].size()) << "batch " << b;
    for (size_t i = 0; i < plan[b].size(); ++i) {
      SeekResult direct = db_->Seek(plan[b][i].lo, plan[b][i].hi);
      const MultiSeekResult& r = replies[b][i];
      ASSERT_EQ(r.found, direct.found) << "batch " << b << " query " << i;
      if (direct.found) {
        ASSERT_EQ(r.key, direct.key) << "batch " << b << " query " << i;
        ASSERT_EQ(r.value, direct.value) << "batch " << b << " query " << i;
      }
    }
  }
  EXPECT_EQ(server_->stats().batches_served, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ServerTest, ClientThatNeverReadsIsThrottled) {
  StartServer();
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);

  std::string ping, pings;
  WireEncodePingRequest(&ping);
  while (pings.size() + ping.size() <= (64u << 10)) pings += ping;

  // Pipeline pings and read nothing. The server stops reading once its
  // unsent replies pass its cap, so the socket buffers fill and the
  // client's sends stall long before 64 MiB.
  constexpr size_t kSendLimit = size_t{64} << 20;
  size_t sent = 0;
  bool stalled = false;
  while (sent < kSendLimit && !stalled) {
    pollfd p{fd, POLLOUT, 0};
    const int ready = ::poll(&p, 1, /*timeout_ms=*/500);
    ASSERT_GE(ready, 0) << std::strerror(errno);
    if (ready == 0) {
      stalled = true;
      break;
    }
    const size_t at = sent % pings.size();
    const ssize_t w = ::write(fd, pings.data() + at, pings.size() - at);
    if (w > 0) {
      sent += static_cast<size_t>(w);
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EINTR) << std::strerror(errno);
    }
  }
  ASSERT_TRUE(stalled) << "sent " << sent << " bytes without a stall";

  // Now read: exactly one pong per ping, finishing any ping cut short
  // by the last write.
  std::string pong;
  WireEncodePongResponse(&pong);
  ASSERT_EQ(pong.size(), ping.size());
  size_t to_send = (ping.size() - sent % ping.size()) % ping.size();
  const size_t expected = (sent + to_send) / ping.size() * pong.size();
  size_t received = 0;
  std::vector<char> buf(64 << 10);
  while (received < expected || to_send > 0) {
    pollfd p{fd, static_cast<short>(POLLIN | (to_send > 0 ? POLLOUT : 0)), 0};
    ASSERT_GT(::poll(&p, 1, /*timeout_ms=*/10000), 0)
        << "received " << received << " of " << expected << " bytes";
    if (to_send > 0 && (p.revents & POLLOUT) != 0) {
      const size_t at = sent % pings.size();
      const ssize_t w = ::write(fd, pings.data() + at, to_send);
      if (w > 0) {
        sent += static_cast<size_t>(w);
        to_send -= static_cast<size_t>(w);
      }
    }
    if ((p.revents & POLLIN) != 0) {
      const ssize_t r = ::read(fd, buf.data(), buf.size());
      ASSERT_NE(r, 0) << "server closed the connection";
      if (r < 0) {
        ASSERT_TRUE(errno == EAGAIN || errno == EINTR) << std::strerror(errno);
        continue;
      }
      for (ssize_t i = 0; i < r; ++i, ++received) {
        if (buf[static_cast<size_t>(i)] != pong[received % pong.size()]) {
          FAIL() << "reply byte " << received << " is not part of a pong";
        }
      }
      ASSERT_LE(received, expected);
    }
  }

  // Nothing more is queued, and the connection still serves.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), -1);
  EXPECT_EQ(errno, EAGAIN);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags), 0);
  std::string payload;
  ASSERT_TRUE(SendAll(fd, ping));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpPong);
  const std::vector<QueryBatch> plan = MakePlan(300, 1, 16);
  std::string request;
  WireEncodeMultiSeekRequest(plan[0], &request);
  std::vector<MultiSeekResult> results;
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  ASSERT_TRUE(WireDecodeResultsResponse(payload, &results));
  EXPECT_EQ(results.size(), plan[0].size());
  ::close(fd);
}

TEST_F(ServerTest, MalformedFrameGetsErrorAndClose) {
  StartServer();
  int fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  // A framed payload with an unknown op.
  std::string request, payload;
  WireAppendFrame(&request, "\xAB bogus");
  ASSERT_TRUE(SendAll(fd, request));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpError);
  // The server closes after the error frame.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);

  // An oversized frame length is rejected without buffering 16 MiB.
  fd = ConnectLoopback(server_->port());
  ASSERT_GE(fd, 0);
  std::string huge;
  PutFixed32(&huge, kWireMaxFrameBytes + 1);
  ASSERT_TRUE(SendAll(fd, huge));
  ASSERT_TRUE(RecvFrame(fd, &payload));
  EXPECT_EQ(WirePeekOp(payload), kWireOpError);
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

}  // namespace
}  // namespace proteus
