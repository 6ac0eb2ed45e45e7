// Failpoint framework tests: the arming/firing/stats machinery itself,
// then the acceptance matrix -- every registered site armed with
// representative injections (ENOSPC, EIO, and a short write where the
// site writes), driven through a real engine or daemon path, asserting
// the failure surfaces as a typed io error (never an abort), no spill
// files or budget reservations leak, and the process keeps working
// afterwards (a clean run succeeds; the daemon answers a follow-up
// ping and job).

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/spill_file.h"
#include "common/workspace.h"
#include "core/batch.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "engine/job_spec.h"
#include "test_util.h"

namespace ldv {
namespace {

using failpoint::Injection;
using failpoint::Site;

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    ASSERT_EQ(SpillFile::LiveCount(), 0u) << "a previous test leaked spill files";
  }
  void TearDown() override {
    failpoint::DisarmAll();
    ::unsetenv("LDIV_PAGE_BYTES");
  }
};

TEST_F(FailpointTest, SiteNamesRoundTrip) {
  for (int i = 0; i < failpoint::kSiteCount; ++i) {
    const Site site = static_cast<Site>(i);
    const char* name = failpoint::SiteName(site);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(name[0], '\0') << "site " << i << " has no name";
    Site parsed = Site::kCount;
    ASSERT_TRUE(failpoint::SiteFromName(name, &parsed)) << name;
    EXPECT_EQ(parsed, site);
  }
  Site ignored = Site::kCount;
  EXPECT_FALSE(failpoint::SiteFromName("no.such.site", &ignored));
}

TEST_F(FailpointTest, DisarmedChecksNeverFire) {
  Injection injection;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));
  }
  // Evaluations are only counted while something is armed: the disabled
  // fast path must stay one atomic load.
  for (const failpoint::SiteStats& stats : failpoint::Stats()) {
    EXPECT_EQ(stats.evaluations, 0u) << stats.name;
    EXPECT_EQ(stats.triggers, 0u) << stats.name;
    EXPECT_FALSE(stats.armed) << stats.name;
  }
}

TEST_F(FailpointTest, NthAndCountBoundTheFiringWindow) {
  failpoint::Arm(Site::kSpillWrite, Injection{ENOSPC, false}, /*nth=*/3, /*count=*/2);
  Injection injection;
  EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));  // 1
  EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));  // 2
  EXPECT_TRUE(failpoint::Check(Site::kSpillWrite, &injection));   // 3 fires
  EXPECT_EQ(injection.error_code, ENOSPC);
  EXPECT_TRUE(failpoint::Check(Site::kSpillWrite, &injection));   // 4 fires
  EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));  // 5: window closed
  EXPECT_EQ(failpoint::Triggers(Site::kSpillWrite), 2u);
  // An armed site never bleeds into its neighbors.
  EXPECT_FALSE(failpoint::Check(Site::kSpillRead, &injection));
  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));
  EXPECT_EQ(failpoint::Triggers(Site::kSpillWrite), 0u);
}

TEST_F(FailpointTest, ArmFromSpecParsesSitesErrnosAndWindows) {
  std::string error;
  ASSERT_TRUE(failpoint::ArmFromSpec("spill.write=ENOSPC:2:1,daemon.read=EIO", &error)) << error;
  Injection injection;
  EXPECT_FALSE(failpoint::Check(Site::kSpillWrite, &injection));
  EXPECT_TRUE(failpoint::Check(Site::kSpillWrite, &injection));
  EXPECT_EQ(injection.error_code, ENOSPC);
  EXPECT_TRUE(failpoint::Check(Site::kDaemonRead, &injection));
  EXPECT_EQ(injection.error_code, EIO);
  failpoint::DisarmAll();

  ASSERT_TRUE(failpoint::ArmFromSpec("spill.write=short", &error)) << error;
  EXPECT_TRUE(failpoint::Check(Site::kSpillWrite, &injection));
  EXPECT_TRUE(injection.short_write);
  EXPECT_EQ(injection.error_code, ENOSPC);
  failpoint::DisarmAll();

  EXPECT_FALSE(failpoint::ArmFromSpec("no.such.site=EIO", &error));
  EXPECT_NE(error.find("no.such.site"), std::string::npos);
  EXPECT_FALSE(failpoint::ArmFromSpec("spill.write", &error));
  EXPECT_FALSE(failpoint::ArmFromSpec("spill.write=EBOGUS", &error));
}

TEST_F(FailpointTest, DescribeNamesTheSiteAndTheErrno) {
  const std::string message =
      failpoint::Describe(Site::kSpillWrite, Injection{ENOSPC, false}, "spill write failed");
  EXPECT_NE(message.find("spill write failed"), std::string::npos);
  EXPECT_NE(message.find("[failpoint spill.write]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance matrix.

// A paged Hilbert run that exercises the storage-layer sites: the 8M
// budget (the smallest ResolveJobSpec accepts) with 4K pages forces
// paged ingestion -- spill create/write, paged append/seal/map.
JobSpec PagedHilbertSpec() {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {150000};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kHilbert};
  spec.ls = {2};
  spec.memory_budget = 8u << 20;
  spec.timings = false;
  spec.compute_kl = false;
  spec.out = testing::TempDir() + "failpoint_paged";
  return spec;
}

// Reaches the external-sort sites and the spill reads, whose only caller
// is the sort's merge: 12 bytes/row of Hilbert sort state over 800k rows
// (9.6M) can never fit the 8M budget, so ComputeOrder is forced onto the
// external spill+merge path, and 800k records overflow the
// budget-derived sort buffer into multiple runs.
JobSpec SortHeavySpec() {
  JobSpec spec = PagedHilbertSpec();
  spec.ns = {800000};
  spec.out = testing::TempDir() + "failpoint_extsort";
  return spec;
}

JobSpec ReportSpec() {
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {600};
  spec.ds = {3};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;
  spec.out = testing::TempDir() + "failpoint_report";
  return spec;
}

std::string WriteCodedCsv() {
  const std::string path = testing::TempDir() + "failpoint_input.csv";
  std::ofstream out(path);
  out << "Age,Gender,Income\n";
  for (int i = 0; i < 40; ++i) {
    out << (i % 3) << "," << (i % 2) << "," << (i % 4) << "\n";
  }
  return path;
}

JobSpec CsvSpec() {
  JobSpec spec;
  spec.input = WriteCodedCsv();
  spec.schema_spec = "Age:3,Gender:2|Income:4";
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;
  spec.out = testing::TempDir() + "failpoint_csv";
  return spec;
}

void RemoveOutputs(const std::string& stem) {
  for (const char* suffix : {".csv", "_sa.csv", ".json", "_metrics.csv"}) {
    std::remove((stem + suffix).c_str());
  }
}

// Runs `spec` through a fresh engine with `site` armed and asserts the
// hardened contract: a typed io error (exit code 3), the site actually
// fired, and nothing leaked.
void ExpectInjectedIoError(const JobSpec& spec, Site site, Injection injection) {
  SCOPED_TRACE(std::string(failpoint::SiteName(site)) + " errno=" +
               std::to_string(injection.error_code) +
               (injection.short_write ? " short" : ""));
  failpoint::Arm(site, injection);
  {
    Engine engine;
    Expected<ExecuteSummary, PipelineError> result = engine.Execute(spec);
    ASSERT_FALSE(result.ok()) << "armed " << failpoint::SiteName(site)
                              << " but the run succeeded";
    EXPECT_EQ(result.error().code, PipelineErrorCode::kIo) << result.error().message;
    EXPECT_EQ(ExitCodeFor(result.error().code), 3);
    EXPECT_GE(failpoint::Triggers(site), 1u) << "the armed site never fired";
    EXPECT_NE(result.error().message.find(std::string("[failpoint ") +
                                          failpoint::SiteName(site) + "]"),
              std::string::npos)
        << result.error().message;
  }
  failpoint::DisarmAll();
  // Leak probes: every spill file reclaimed, every budget reservation
  // released, once the engine (and its caches) is gone.
  EXPECT_EQ(SpillFile::LiveCount(), 0u) << "leaked spill files after " << failpoint::SiteName(site);
  EXPECT_EQ(MemoryBudget::OutstandingBytes(), 0u)
      << "leaked budget reservations after " << failpoint::SiteName(site);
  RemoveOutputs(spec.out);
}

TEST_F(FailpointTest, MatrixEveryEngineSiteSurfacesAsTypedIoError) {
  ::setenv("LDIV_PAGE_BYTES", "4096", 1);

  JobSpec paged = PagedHilbertSpec();
  JobSpec extsort = SortHeavySpec();
  JobSpec report = ReportSpec();
  JobSpec csv = CsvSpec();
  // Two threads per run exercise exception propagation out of parallel
  // kernels.
  for (JobSpec* spec : {&paged, &extsort, &report, &csv}) spec->threads = 2;

  // Which driver reaches which site. Enumerated over the full registry so
  // a future site cannot be added without a matrix entry.
  std::map<Site, const JobSpec*> drivers = {
      {Site::kSpillCreate, &paged},     {Site::kSpillWrite, &paged},
      {Site::kSpillRead, &extsort},     {Site::kPagedAppend, &paged},
      {Site::kPagedSeal, &paged},       {Site::kPagedMap, &paged},
      {Site::kExtSortSpill, &extsort},  {Site::kExtSortMerge, &extsort},
      {Site::kCsvRead, &csv},           {Site::kReportWrite, &report},
      {Site::kReleaseWrite, &report},
  };
  const std::vector<Site> daemon_sites = {Site::kDaemonAccept, Site::kDaemonRead,
                                          Site::kDaemonWrite};
  ASSERT_EQ(drivers.size() + daemon_sites.size(), static_cast<std::size_t>(failpoint::kSiteCount))
      << "every registered site needs a matrix driver (daemon sites are "
         "covered by MatrixDaemonSites*)";

  for (const auto& [site, spec] : drivers) {
    ExpectInjectedIoError(*spec, site, Injection{ENOSPC, false});
    ExpectInjectedIoError(*spec, site, Injection{EIO, false});
  }
  // Short writes land half the page for real before failing, exercising
  // the unwind against a genuinely torn spill page.
  ExpectInjectedIoError(paged, Site::kSpillWrite, Injection{ENOSPC, true});

  // With everything disarmed, the same specs run clean: the failures were
  // the injections, not the hardening.
  Engine engine;
  Expected<ExecuteSummary, PipelineError> clean = engine.Execute(report);
  ASSERT_TRUE(clean.ok()) << clean.error().message;
  EXPECT_EQ(clean->exit_code, 0);
  RemoveOutputs(report.out);
  std::remove(csv.input.c_str());
}

// A raw input's dictionary sidecar is the first file such a run writes,
// and it sits under report.write with the other side files: with the site
// armed the run stops at the sidecar, before any release or report exists.
TEST_F(FailpointTest, ReportWriteStopsARawRunAtItsSidecar) {
  JobSpec spec;
  spec.input = testing::TempDir() + "failpoint_raw_input.csv";
  {
    std::ofstream out(spec.input);
    out << "City,Job,Disease\n";
    for (int i = 0; i < 40; ++i) out << "c" << i % 3 << ",j" << i % 2 << ",d" << i % 4 << "\n";
  }
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2};
  spec.timings = false;
  spec.out = testing::TempDir() + "failpoint_raw";
  const std::vector<std::string> outputs = {spec.out + "_dict.csv", spec.out + ".csv",
                                            spec.out + ".json"};
  for (const std::string& path : outputs) std::remove(path.c_str());

  failpoint::Arm(Site::kReportWrite, Injection{ENOSPC, false});
  {
    Engine engine;
    Expected<ExecuteSummary, PipelineError> result = engine.Execute(spec);
    ASSERT_FALSE(result.ok()) << "armed report.write but the raw run succeeded";
    EXPECT_EQ(result.error().code, PipelineErrorCode::kIo) << result.error().message;
    EXPECT_NE(result.error().message.find("cannot write '" + spec.out + "_dict.csv'"),
              std::string::npos)
        << result.error().message;
    EXPECT_NE(result.error().message.find("[failpoint report.write]"), std::string::npos)
        << result.error().message;
  }
  EXPECT_EQ(failpoint::Triggers(Site::kReportWrite), 1u) << "the sidecar is the first write";
  for (const std::string& path : outputs) {
    EXPECT_FALSE(std::ifstream(path).good()) << path << " exists after the sidecar failed";
  }
  std::remove(spec.input.c_str());
}

// A job that throws on a batch worker thread must not std::terminate the
// process: AnonymizeBatch keeps the first exception, stops handing out
// jobs, joins, and rethrows on the caller -- where the engine's unwind
// boundary turns it into a typed io error.
TEST_F(FailpointTest, BatchWorkerFailureRethrowsOnTheCaller) {
  Table table = GenerateSal(20000, 1).ProjectQi({kAge, kGender, kEducation});
  const Table* tables[] = {&table};
  const Algorithm algorithms[] = {Algorithm::kTpPlus, Algorithm::kHilbert};
  const std::uint32_t ls[] = {2};
  const std::vector<RunSpec> specs = ExpandRunGrid(algorithms, ls, 1, AnonymizerOptions{});
  // Nothing of the budget is left, so both jobs sort externally and
  // create spill files.
  auto budget = std::make_shared<MemoryBudget>(8u << 20);
  MemoryReservation hog(budget, budget->total());
  failpoint::Arm(Site::kSpillCreate, Injection{ENOSPC, false});
  {
    const Workspace run(2, budget);
    EXPECT_THROW(AnonymizeBatch(specs, tables, {}, run), IoFailure);
  }
  EXPECT_GE(failpoint::Triggers(Site::kSpillCreate), 1u) << "the armed site never fired";
  failpoint::DisarmAll();
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  hog.Reset();
  EXPECT_EQ(budget->used(), 0u) << "a failed job kept its budget charge";

  // Disarmed, the same batch runs clean on the same budget.
  const Workspace run(2, budget);
  for (const AnonymizationOutcome& outcome : AnonymizeBatch(specs, tables, {}, run)) {
    EXPECT_TRUE(outcome.feasible);
  }
}

TEST_F(FailpointTest, MatrixDaemonSitesKeepTheDaemonServing) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "failpoint_daemon.sock";
  options.io_timeout_ms = 2000;
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  JobSpec job = ReportSpec();
  job.out = testing::TempDir() + "failpoint_daemon_job";

  for (const Site site : {Site::kDaemonAccept, Site::kDaemonRead, Site::kDaemonWrite}) {
    for (const int code : {ENOSPC, EIO}) {
      SCOPED_TRACE(std::string(failpoint::SiteName(site)) + " errno=" + std::to_string(code));
      // count=1: exactly one protocol operation fails; the client request
      // riding on it loses (connection dropped or local error), which is
      // the contract -- what must survive is the daemon.
      failpoint::Arm(site, Injection{code, false}, /*nth=*/1, /*count=*/1);
      Frame reply;
      std::map<std::string, std::string> kv;
      std::string request_error;
      (void)DaemonRequest(options.socket_path, Frame{"ping", ""}, &reply, &kv, &request_error);
      EXPECT_GE(failpoint::Triggers(site), 1u);
      failpoint::DisarmAll();

      // The daemon must answer a follow-up ping AND run a real job.
      kv.clear();
      ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"ping", ""}, &reply, &kv, &error))
          << error;
      EXPECT_EQ(reply.verb, "ok");
      kv.clear();
      ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(job)}, &reply,
                                &kv, &error))
          << error;
      EXPECT_EQ(reply.verb, "ok") << reply.payload;
      RemoveOutputs(job.out);
    }
  }

  daemon.Stop();
  daemon.WaitForShutdown();
}

// An engine failure INSIDE a daemon worker must become an error reply --
// the isolation boundary -- and count as `failed`, keeping the stats
// invariant accepted == completed + expired + failed.
TEST_F(FailpointTest, DaemonWorkerIsolatesInjectedJobFailures) {
  ::setenv("LDIV_PAGE_BYTES", "4096", 1);
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "failpoint_isolation.sock";
  Daemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;

  failpoint::Arm(Site::kSpillWrite, Injection{ENOSPC, false});
  Frame reply;
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(PagedHilbertSpec())},
                            &reply, &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "error") << reply.payload;
  EXPECT_EQ(kv["exit-code"], "3") << reply.payload;
  EXPECT_NE(kv["error"].find("failpoint spill.write"), std::string::npos) << kv["error"];
  failpoint::DisarmAll();

  // The daemon survived and still runs clean jobs.
  JobSpec clean = ReportSpec();
  clean.out = testing::TempDir() + "failpoint_isolation_out";
  kv.clear();
  ASSERT_TRUE(DaemonRequest(options.socket_path, Frame{"job", SerializeJobSpec(clean)}, &reply,
                            &kv, &error))
      << error;
  EXPECT_EQ(reply.verb, "ok") << reply.payload;
  RemoveOutputs(clean.out);

  daemon.Stop();
  daemon.WaitForShutdown();
  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.expired + stats.failed);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
}

}  // namespace
}  // namespace ldv
