// Chaos soak: a concurrent submit flood against a small-queue daemon
// while a chaos thread randomly arms failpoints across every layer and
// hostile clients send garbage, truncated frames, and vanish mid-frame.
// Mid-soak the daemon is stopped (the drain path under fire). The
// invariants: every transported request got exactly one well-formed
// reply; accepted == completed + expired + failed; no spill files or
// budget reservations leak; and a fresh daemon binds the same path and
// serves. Run under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/spill_file.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "engine/job_spec.h"
#include "test_util.h"

namespace ldv {
namespace {

using failpoint::Injection;
using failpoint::Site;

int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t sent = ::send(fd, data, left, MSG_NOSIGNAL);
    if (sent <= 0) return;
    data += sent;
    left -= static_cast<std::size_t>(sent);
  }
}

JobSpec SoakSpec(const std::string& out) {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {400};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;
  spec.compute_kl = false;
  spec.out = out;
  return spec;
}

void RemoveOutputs(const std::string& stem) {
  for (const char* suffix : {".csv", "_sa.csv", ".json", "_metrics.csv"}) {
    std::remove((stem + suffix).c_str());
  }
}

TEST(ChaosSoak, FloodWithRandomFailpointsDrainsCleanlyAndRestarts) {
  failpoint::DisarmAll();
  ASSERT_EQ(SpillFile::LiveCount(), 0u);

  DaemonOptions options;
  options.socket_path = testing::TempDir() + "chaos_soak.sock";
  options.queue_depth = 4;
  options.workers = 2;
  options.retry_after_ms = 20;
  options.io_timeout_ms = 500;  // hostile clients stall at most half a second
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Short soak profile for routine ctest; CI's chaos leg runs the same
  // shape, the sanitizers do the deep checking.
  const int kClients = 4;
  const int kIterations = 12;
  std::atomic<std::uint64_t> malformed_replies{0};
  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<bool> chaos_stop{false};

  // The chaos thread: arm a random site for exactly one firing, let the
  // flood hit it, repeat. DisarmAll on exit so the drain below is clean.
  std::thread chaos([&] {
    std::mt19937 rng(12345);
    while (!chaos_stop.load(std::memory_order_relaxed)) {
      const Site site = static_cast<Site>(rng() % failpoint::kSiteCount);
      const int code = rng() % 2 == 0 ? ENOSPC : EIO;
      failpoint::Arm(site, Injection{code, false}, /*nth=*/1, /*count=*/1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    failpoint::DisarmAll();
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(1000 + c);
      for (int i = 0; i < kIterations; ++i) {
        const int action = rng() % 6;
        if (action <= 2) {
          // A real submit. Transport may fail (injected socket faults,
          // shutdown); when a frame does come back it must be one of the
          // three reply verbs.
          const std::string out = testing::TempDir() + "chaos_soak_" + std::to_string(c) + "_" +
                                  std::to_string(i);
          Frame reply;
          std::map<std::string, std::string> kv;
          std::string request_error;
          if (DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(SoakSpec(out))},
                            &reply, &kv, &request_error)) {
            if (reply.verb == "ok") {
              ok_replies.fetch_add(1, std::memory_order_relaxed);
            } else if (reply.verb != "busy" && reply.verb != "error") {
              malformed_replies.fetch_add(1, std::memory_order_relaxed);
            }
          }
          RemoveOutputs(out);
        } else if (action == 3) {
          Frame reply;
          std::map<std::string, std::string> kv;
          std::string request_error;
          (void)DaemonRequest(options.socket_path, Frame{rng() % 2 == 0 ? "ping" : "stats", ""},
                              &reply, &kv, &request_error);
        } else if (action == 4) {
          // Garbage or a lying header; the daemon must answer or drop,
          // never wedge.
          const int fd = RawConnect(options.socket_path);
          if (fd >= 0) {
            SendAll(fd, rng() % 2 == 0 ? "ldiv1 job 5000\nonly-ten-b" : "total garbage\n");
            ::close(fd);
          }
        } else {
          // A client killed mid-frame: partial header, abrupt close.
          const int fd = RawConnect(options.socket_path);
          if (fd >= 0) {
            SendAll(fd, "ldiv1 jo");
            ::close(fd);
          }
        }
      }
    });
  }

  // Mid-soak drain: stop while clients are still flooding. Accepted jobs
  // must still be answered; later submits get refused, not hung.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  daemon.Stop();
  for (std::thread& t : clients) t.join();
  chaos_stop.store(true, std::memory_order_relaxed);
  chaos.join();
  daemon.WaitForShutdown();

  EXPECT_EQ(malformed_replies.load(), 0u);
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired + stats.failed)
      << "accepted=" << stats.accepted << " completed=" << stats.completed
      << " expired=" << stats.expired << " failed=" << stats.failed;
  EXPECT_GE(stats.completed, ok_replies.load()) << "an ok reply implies a completed job";
  EXPECT_EQ(SpillFile::LiveCount(), 0u) << "soak leaked spill files";
  EXPECT_EQ(MemoryBudget::OutstandingBytes(), 0u) << "soak leaked budget reservations";

  // The socket is gone and the path is reusable: a fresh daemon binds and
  // serves -- no leaked listener, no stale-socket wedge.
  Daemon fresh(options);
  ASSERT_TRUE(fresh.Start(&error)) << error;
  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"ping", ""}, &reply, &kv, &error)) << error;
  EXPECT_EQ(reply.verb, "ok");
  const std::string out = testing::TempDir() + "chaos_soak_fresh";
  kv.clear();
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(SoakSpec(out))},
                            &reply, &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "ok") << reply.payload;
  RemoveOutputs(out);
  fresh.Stop();
  fresh.WaitForShutdown();
}

}  // namespace
}  // namespace ldv
