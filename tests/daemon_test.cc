// ldivd daemon tests over a real unix socket: the framed protocol, the
// bounded admission queue (every client gets exactly one reply -- ok or
// busy -- never a hang or a silent drop), priority and deadline handling
// at dequeue, cache hits across submissions, byte-identical
// outputs versus a direct Engine run, workers running jobs concurrently
// (the running / max-running counters), and graceful shutdown draining.

#include "daemon/daemon.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "engine/job_spec.h"
#include "test_util.h"

namespace ldv {
namespace {

struct Reply {
  bool transported = false;
  Frame frame;
  std::map<std::string, std::string> kv;
  std::string error;
};

Reply Submit(const std::string& socket_path, const JobSpec& spec) {
  Reply reply;
  reply.transported = DaemonRequest(socket_path, Frame{"job", SerializeJobSpec(spec)},
                                    &reply.frame, &reply.kv, &reply.error);
  return reply;
}

JobSpec SmallSpec(const std::string& out) {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {600};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;  // byte-deterministic outputs for the comparisons
  spec.out = out;
  return spec;
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, got);
  std::fclose(f);
  return content;
}

void RemoveOutputs(const std::string& stem) {
  for (const char* suffix : {".csv", "_sa.csv", ".json", "_metrics.csv"}) {
    std::remove((stem + suffix).c_str());
  }
}

class DaemonTest : public ::testing::Test {
 protected:
  std::string SocketPath(const std::string& name) { return testing::TempDir() + name; }
};

TEST_F(DaemonTest, ProtocolFramesRoundTripAndRejectOversizedPayloads) {
  std::map<std::string, std::string> kv = {{"b key", "value = with = signs"}, {"a", "1"}};
  std::string payload = EncodeKvPayload(kv);
  std::map<std::string, std::string> parsed;
  std::string error;
  ASSERT_TRUE(ParseKvPayload(payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.at("a"), "1");
  EXPECT_EQ(parsed.at("b key"), "value = with = signs");
  EXPECT_FALSE(ParseKvPayload("no equals sign here\n", &parsed, &error));
}

TEST_F(DaemonTest, PingStatsAndUnknownVerbs) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_basic.sock");
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"ping", ""}, &reply, &kv, &error)) << error;
  EXPECT_EQ(reply.verb, "ok");
  EXPECT_EQ(kv.at("status"), "ok");

  kv.clear();
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"stats", ""}, &reply, &kv, &error)) << error;
  EXPECT_EQ(reply.verb, "ok");
  EXPECT_EQ(kv.at("accepted"), "0");
  EXPECT_EQ(kv.at("queue-depth"), "16");
  EXPECT_EQ(kv.at("running"), "0");
  EXPECT_EQ(kv.at("max-running"), "0");

  kv.clear();
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"frobnicate", ""}, &reply, &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "error");
  EXPECT_NE(kv.at("error").find("unknown request verb"), std::string::npos);

  daemon.Stop();
  daemon.WaitForShutdown();
}

TEST_F(DaemonTest, MalformedJobSpecsGetTypedErrorReplies) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_badspec.sock");
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"job", "version = 1\nl = 0\n"}, &reply,
                            &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "error");
  EXPECT_EQ(kv.at("field"), "l");
  EXPECT_EQ(kv.at("exit-code"), "1");

  daemon.Stop();
  daemon.WaitForShutdown();
  EXPECT_EQ(daemon.stats().rejected_error, 1u);
}

TEST_F(DaemonTest, ConcurrentSubmitsBoundTheQueueAndReplyToEveryone) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_stress.sock");
  options.queue_depth = 2;
  options.workers = 1;
  options.retry_after_ms = 55;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Reference output, written by a direct engine run (the one-shot path).
  const std::string reference_stem = testing::TempDir() + "ldivd_stress_reference";
  Engine reference;
  JobSpec reference_spec = SmallSpec(reference_stem);
  Expected<ExecuteSummary, PipelineError> reference_summary = reference.Execute(reference_spec);
  ASSERT_TRUE(reference_summary.ok()) << reference_summary.error().message;

  constexpr std::size_t kClients = 8;
  std::vector<Reply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = Submit(options.socket_path,
                          SmallSpec(testing::TempDir() + "ldivd_stress_" + std::to_string(i)));
    });
  }
  for (std::thread& t : clients) t.join();

  std::size_t ok_count = 0, busy_count = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    const Reply& reply = replies[i];
    ASSERT_TRUE(reply.transported) << reply.error;
    if (reply.frame.verb == "busy") {
      ++busy_count;
      EXPECT_EQ(reply.kv.at("retry-after-ms"), "55");
      EXPECT_EQ(reply.kv.at("exit-code"), "4");
      continue;
    }
    ASSERT_EQ(reply.frame.verb, "ok") << reply.frame.payload;
    ++ok_count;
    EXPECT_EQ(reply.kv.at("exit-code"), "0");
    // Acceptance: per-job results byte-identical to the one-shot path.
    const std::string stem = testing::TempDir() + "ldivd_stress_" + std::to_string(i);
    EXPECT_EQ(ReadFile(stem + ".csv"), ReadFile(reference_stem + ".csv")) << stem;
    EXPECT_EQ(ReadFile(stem + "_metrics.csv"), ReadFile(reference_stem + "_metrics.csv"));
    RemoveOutputs(stem);
  }
  EXPECT_EQ(ok_count + busy_count, kClients) << "no job may go unanswered";
  EXPECT_GE(ok_count, 1u);

  daemon.Stop();
  daemon.WaitForShutdown();
  Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.accepted, ok_count);
  EXPECT_EQ(stats.completed, ok_count);
  EXPECT_EQ(stats.rejected_busy, busy_count);
  EXPECT_LE(stats.max_queue_depth, options.queue_depth) << "admission must bound the queue";
  EXPECT_LE(stats.max_running, options.workers) << "one worker runs one job at a time";
  EXPECT_EQ(stats.running, 0u);
  RemoveOutputs(reference_stem);
}

TEST_F(DaemonTest, WorkersRunJobsConcurrently) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_concurrent.sock");
  options.workers = 4;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Four clients, each submitting every algorithm over 100k rows at one
  // thread (a few hundred ms of solving): four workers run them at once.
  constexpr std::size_t kClients = 4;
  std::vector<Reply> replies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      JobSpec spec = SmallSpec(testing::TempDir() + "ldivd_concurrent_" + std::to_string(i));
      spec.ns = {100000};
      spec.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
      spec.threads = 1;
      replies[i] = Submit(options.socket_path, spec);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(replies[i].transported) << replies[i].error;
    ASSERT_EQ(replies[i].frame.verb, "ok") << replies[i].frame.payload;
    EXPECT_EQ(replies[i].kv.at("threads"), "1") << "each job runs under its own thread count";
    RemoveOutputs(testing::TempDir() + "ldivd_concurrent_" + std::to_string(i));
  }

  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"stats", ""}, &reply, &kv, &error)) << error;
  std::uint64_t max_running = 0;
  ASSERT_TRUE(ParseUint64(kv.at("max-running"), &max_running));
  EXPECT_GE(max_running, 2u) << "jobs must overlap instead of queueing behind one another";
  EXPECT_LE(max_running, options.workers);

  daemon.Stop();
  daemon.WaitForShutdown();
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.running, 0u) << "a drained daemon runs nothing";
  EXPECT_EQ(stats.max_running, max_running);
  EXPECT_EQ(stats.completed, kClients);
}

TEST_F(DaemonTest, RepeatSubmissionsHitTheCache) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_cache.sock");
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  const std::string stem = testing::TempDir() + "ldivd_cache_out";
  Reply first = Submit(options.socket_path, SmallSpec(stem));
  ASSERT_TRUE(first.transported) << first.error;
  ASSERT_EQ(first.frame.verb, "ok") << first.frame.payload;
  EXPECT_EQ(first.kv.at("cache-hits"), "0");
  EXPECT_EQ(first.kv.at("cache-misses"), "1");

  Reply second = Submit(options.socket_path, SmallSpec(stem));
  ASSERT_TRUE(second.transported) << second.error;
  ASSERT_EQ(second.frame.verb, "ok") << second.frame.payload;
  EXPECT_EQ(second.kv.at("cache-hits"), "1") << "repeat input must hit the cache";
  EXPECT_EQ(second.kv.at("cache-misses"), "0");

  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"stats", ""}, &reply, &kv, &error)) << error;
  EXPECT_EQ(kv.at("cache-hits"), "1");
  EXPECT_EQ(kv.at("cache-misses"), "1");

  daemon.Stop();
  daemon.WaitForShutdown();
  RemoveOutputs(stem);
}

TEST_F(DaemonTest, PriorityWinsTheQueueAndExpiredDeadlinesAreRefused) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_prio.sock");
  options.queue_depth = 8;
  options.workers = 1;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // A multi-second sweep occupies the single worker while the contenders
  // queue up behind it (12 jobs x 500k rows runs ~2s even on fast
  // hardware; the sleeps below stay an order of magnitude shorter).
  JobSpec blocker = SmallSpec(testing::TempDir() + "ldivd_prio_blocker");
  blocker.ns = {500000};
  blocker.ls = {2, 3, 4};
  blocker.algorithms.assign(kAllAlgorithms.begin(), kAllAlgorithms.end());
  std::thread blocker_client([&] { Submit(options.socket_path, blocker); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  JobSpec low = SmallSpec(testing::TempDir() + "ldivd_prio_low");
  low.priority = 0;
  JobSpec high = SmallSpec(testing::TempDir() + "ldivd_prio_high");
  high.priority = 5;
  JobSpec doomed = SmallSpec(testing::TempDir() + "ldivd_prio_doomed");
  doomed.deadline_ms = 1;  // expires long before the blocker finishes

  Reply low_reply, high_reply, doomed_reply;
  std::thread low_client([&] { low_reply = Submit(options.socket_path, low); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread high_client([&] { high_reply = Submit(options.socket_path, high); });
  std::thread doomed_client([&] { doomed_reply = Submit(options.socket_path, doomed); });
  low_client.join();
  high_client.join();
  doomed_client.join();
  blocker_client.join();

  ASSERT_EQ(low_reply.frame.verb, "ok") << low_reply.frame.payload;
  ASSERT_EQ(high_reply.frame.verb, "ok") << high_reply.frame.payload;
  std::uint64_t low_seq = 0, high_seq = 0;
  ASSERT_TRUE(ParseUint64(low_reply.kv.at("completed-seq"), &low_seq));
  ASSERT_TRUE(ParseUint64(high_reply.kv.at("completed-seq"), &high_seq));
  EXPECT_LT(high_seq, low_seq) << "priority 5 must dequeue before priority 0";

  ASSERT_EQ(doomed_reply.frame.verb, "error") << doomed_reply.frame.payload;
  EXPECT_NE(doomed_reply.kv.at("error").find("deadline expired"), std::string::npos);
  EXPECT_EQ(doomed_reply.kv.at("exit-code"), "4");

  daemon.Stop();
  daemon.WaitForShutdown();
  EXPECT_EQ(daemon.stats().expired, 1u);
  for (const char* name : {"ldivd_prio_blocker", "ldivd_prio_low", "ldivd_prio_high"}) {
    RemoveOutputs(testing::TempDir() + name);
  }
}

TEST_F(DaemonTest, ShutdownDrainsEveryAcceptedJob) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_drain.sock");
  options.queue_depth = 8;
  options.workers = 1;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  constexpr std::size_t kJobs = 4;
  std::vector<Reply> replies(kJobs);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kJobs; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = Submit(options.socket_path,
                          SmallSpec(testing::TempDir() + "ldivd_drain_" + std::to_string(i)));
    });
  }
  // Stop while jobs are (likely) still queued; the drain guarantee says
  // every accepted job still completes with a reply.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  daemon.Stop();
  daemon.WaitForShutdown();
  for (std::thread& t : clients) t.join();

  std::size_t answered = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(replies[i].transported) << replies[i].error;
    EXPECT_TRUE(replies[i].frame.verb == "ok" || replies[i].frame.verb == "error")
        << replies[i].frame.verb;
    if (replies[i].frame.verb == "ok") ++answered;
    RemoveOutputs(testing::TempDir() + "ldivd_drain_" + std::to_string(i));
  }
  Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.completed, answered);
  EXPECT_EQ(stats.accepted, stats.completed) << "graceful shutdown must drain the queue";
  EXPECT_EQ(stats.running, 0u);
}

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

void ExpectAlive(const std::string& socket_path) {
  Frame reply;
  std::map<std::string, std::string> kv;
  std::string error;
  ASSERT_TRUE(DaemonRequest(socket_path, Frame{"ping", ""}, &reply, &kv, &error)) << error;
  EXPECT_EQ(reply.verb, "ok");
}

TEST_F(DaemonTest, StartRefusesALiveSocketAndReplacesAStaleOne) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_stale.sock");
  Daemon first(options);
  std::string error;
  ASSERT_TRUE(first.Start(&error)) << error;

  // A second daemon on the same path must refuse, not hijack.
  Daemon contender(options);
  EXPECT_FALSE(contender.Start(&error));
  EXPECT_NE(error.find("already listening"), std::string::npos) << error;
  ExpectAlive(options.socket_path);  // the first daemon was not disturbed

  first.Stop();
  first.WaitForShutdown();

  // Fake a crashed daemon: a bound-then-abandoned socket file with
  // nothing listening behind it.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(), options.socket_path.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(stale);  // the file outlives the socket -- the classic stale sock

  Daemon replacement(options);
  ASSERT_TRUE(replacement.Start(&error)) << "a dead socket file must be replaced: " << error;
  ExpectAlive(options.socket_path);
  replacement.Stop();
  replacement.WaitForShutdown();

  // A non-socket file at the path is never touched.
  {
    std::ofstream plain(options.socket_path);
    plain << "precious";
  }
  Daemon refused(options);
  EXPECT_FALSE(refused.Start(&error));
  EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
  std::string content;
  {
    std::ifstream in(options.socket_path);
    std::getline(in, content);
  }
  EXPECT_EQ(content, "precious") << "refusing must leave the file intact";
  std::remove(options.socket_path.c_str());
}

TEST_F(DaemonTest, ClientVanishingBeforeItsReplyDoesNotKillTheDaemon) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_sigpipe.sock");
  options.io_timeout_ms = 500;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Send a complete request, then close without reading the reply: the
  // daemon's write lands on a dead peer (EPIPE territory). Repeat a few
  // times so at least one write truly races the close.
  for (int i = 0; i < 5; ++i) {
    const int fd = RawConnect(options.socket_path);
    ASSERT_GE(fd, 0);
    SendAll(fd, "ldiv1 ping 0\n");
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ExpectAlive(options.socket_path);  // SIGPIPE would have killed the process

  daemon.Stop();
  daemon.WaitForShutdown();
}

TEST_F(DaemonTest, TruncatedLyingAndOversizedFramesDropOnlyTheirConnection) {
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_frames.sock");
  options.io_timeout_ms = 300;  // a stalled hostile client is cut loose fast
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  // Partial header, then silence: the silence budget must cut the
  // connection loose instead of pinning a handler forever.
  const int partial = RawConnect(options.socket_path);
  ASSERT_GE(partial, 0);
  SendAll(partial, "ldiv1 jo");

  // A concurrent well-formed client must be unaffected while the hostile
  // one is still stalling.
  ExpectAlive(options.socket_path);

  // A header lying about its payload size: 100 promised, 10 sent.
  const int liar = RawConnect(options.socket_path);
  ASSERT_GE(liar, 0);
  SendAll(liar, "ldiv1 job 100\nten bytes!");
  ExpectAlive(options.socket_path);

  // An oversized frame is refused up front with a typed error reply.
  const int huge = RawConnect(options.socket_path);
  ASSERT_GE(huge, 0);
  SendAll(huge, "ldiv1 job " + std::to_string(kMaxFramePayload + 1) + "\n");
  Frame reply;
  std::string read_error;
  ASSERT_TRUE(ReadFrame(huge, &reply, &read_error, nullptr, 2000)) << read_error;
  EXPECT_EQ(reply.verb, "error");
  EXPECT_NE(reply.payload.find("exceeds"), std::string::npos) << reply.payload;
  ::close(huge);

  // Garbage magic: typed error, connection dropped.
  const int garbage = RawConnect(options.socket_path);
  ASSERT_GE(garbage, 0);
  SendAll(garbage, "not a frame at all\n");
  ASSERT_TRUE(ReadFrame(garbage, &reply, &read_error, nullptr, 2000)) << read_error;
  EXPECT_EQ(reply.verb, "error");
  EXPECT_NE(reply.payload.find("bad frame magic"), std::string::npos) << reply.payload;
  ::close(garbage);

  // Wait out the stalled connections' silence budget; the daemon must
  // still be serving afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ::close(partial);
  ::close(liar);
  ExpectAlive(options.socket_path);

  daemon.Stop();
  daemon.WaitForShutdown();
  EXPECT_GE(daemon.stats().rejected_error, 3u) << "hostile frames must be counted";
}

TEST_F(DaemonTest, PayloadValidationRejectsNulsDuplicatesAndOversizedKeys) {
  std::map<std::string, std::string> pairs;
  std::string error;

  std::string with_nul = "a = 1\n";
  with_nul.push_back('\0');
  EXPECT_FALSE(ParseKvPayload(with_nul, &pairs, &error));
  EXPECT_NE(error.find("NUL"), std::string::npos) << error;

  pairs.clear();
  EXPECT_FALSE(ParseKvPayload("a = 1\nb = 2\na = 3\n", &pairs, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("repeats"), std::string::npos) << error;

  pairs.clear();
  EXPECT_FALSE(ParseKvPayload(" = naked value\n", &pairs, &error));
  EXPECT_NE(error.find("empty key"), std::string::npos) << error;

  pairs.clear();
  const std::string long_key(kMaxPayloadKeyBytes + 1, 'k');
  EXPECT_FALSE(ParseKvPayload(long_key + " = v\n", &pairs, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;

  // The daemon rejects a job spec smuggling a duplicate key (a silently
  // dropped second `out` would hide where the job writes).
  DaemonOptions options;
  options.socket_path = SocketPath("ldivd_dupkey.sock");
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Start(&error)) << error;
  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path,
                            Frame{"job", "version = 1\nout = a\nout = b\n"}, &reply, &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "error");
  EXPECT_NE(kv["error"].find("duplicate key 'out'"), std::string::npos) << kv["error"];
  EXPECT_EQ(kv["exit-code"], "1");
  daemon.Stop();
  daemon.WaitForShutdown();
}

}  // namespace
}  // namespace ldv
