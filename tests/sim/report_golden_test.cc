// Golden report bytes for every driver. Each case runs one fixed
// configuration and compares a 64-bit FNV-1a digest of the report's
// ToString() (full-precision text) against a constant captured before the
// kernel's batched dispatch loop was removed (DESIGN.md §15.1), when the
// batched and scalar loops agreed on every one. Any report byte that moves
// under a kernel or driver refactor is a behaviour change, and this suite
// is the tripwire.
//
// Coverage matrix: single-movie basic (three seeds), piggyback merging,
// server with faults + degradation + paranoid audit, server with the
// reallocation controller, and the sharded server at 1/4/8 shards (single-
// and multi-threaded). The paranoid-audit leg also checks every
// conservation law after every event.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/server.h"
#include "sim/sharded_server.h"
#include "sim/simulator.h"
#include "workload/paper_presets.h"

namespace vod {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

SimulationOptions BasicOptions(uint64_t seed) {
  SimulationOptions options;
  options.behavior = paper::Fig7MixedBehavior();
  options.warmup_minutes = 200.0;
  options.measurement_minutes = 6000.0;
  options.seed = seed;
  return options;
}

TEST(ReportGoldenTest, SingleMovieBasic) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  const struct {
    uint64_t seed;
    uint64_t digest;
  } kGolden[] = {
      {42, 0x82f9f1cda0591e66ull},
      {7, 0xa2e7aa8a93dfe161ull},
      {999, 0x1c6d577692ccd4d6ull},
  };
  for (const auto& golden : kGolden) {
    const auto report =
        RunSimulation(layout, paper::Rates(), BasicOptions(golden.seed));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Fnv1a(report->ToString()), golden.digest)
        << "seed " << golden.seed;
  }
}

TEST(ReportGoldenTest, Piggyback) {
  const PartitionLayout layout = MakeLayout(120.0, 40, 80.0);
  SimulationOptions options = BasicOptions(42);
  options.piggyback.enabled = true;
  options.piggyback.speed_delta = 0.05;
  const auto report = RunSimulation(layout, paper::Rates(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->piggyback_merges, 0) << "leg must exercise merging";
  EXPECT_EQ(Fnv1a(report->ToString()), 0x4c26201ecf7d4cf7ull);
}

std::vector<ServerMovieSpec> ThreeMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.25, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  movies.push_back({"gamma", MakeLayout(100.0, 20, 50.0), 0.4, nullptr,
                    paper::Fig7MixedBehavior()});
  return movies;
}

ServerOptions ServerBase(uint64_t seed) {
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = 40;
  options.warmup_minutes = 300.0;
  options.measurement_minutes = 5000.0;
  options.seed = seed;
  return options;
}

TEST(ReportGoldenTest, FaultsAndParanoidAudit) {
  ServerOptions options = ServerBase(17);
  options.dynamic_stream_reserve = 24;  // scarce: the ladder must engage
  options.faults.enabled = true;
  options.faults.disks = 4;
  options.faults.profile.mtbf_minutes = 1500.0;
  options.faults.profile.mttr_minutes = 300.0;
  options.degradation.enabled = true;
  options.degradation.queue_deadline_minutes = 5.0;
  options.audit.enabled = true;
  options.audit.every_events = 1;  // paranoid: audit after every event
  const auto report = RunServerSimulation(ThreeMovies(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->resilience.disk_failures, 0) << "leg must exercise faults";
  EXPECT_EQ(Fnv1a(report->ToString()), 0x7342638003ed2b30ull);
}

TEST(ReportGoldenTest, ActiveController) {
  std::vector<ServerMovieSpec> movies = ThreeMovies();
  const auto flash = FlashArrivals::Create(
      movies[0].arrival_rate_per_minute, /*peak_factor=*/4.0,
      /*start_minutes=*/200.0, /*duration_minutes=*/1200.0);
  ASSERT_TRUE(flash.ok());
  movies[0].arrivals = std::make_shared<FlashArrivals>(*flash);

  ServerOptions options = ServerBase(42);
  options.dynamic_stream_reserve = 20;
  options.degradation.enabled = true;
  options.degradation.queue_deadline_minutes = 5.0;
  options.controller.enabled = true;
  options.audit.enabled = true;  // a violated law fails the run
  const auto report = RunServerSimulation(movies, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->controller.Active()) << "leg must exercise migrations";
  EXPECT_EQ(Fnv1a(report->ToString()), 0xee06a5902d9a6aa5ull);
}

std::vector<ServerMovieSpec> FourMovies() {
  std::vector<ServerMovieSpec> movies = ThreeMovies();
  movies.push_back({"delta", MakeLayout(110.0, 25, 60.0), 0.3, nullptr,
                    paper::Fig7MixedBehavior()});
  return movies;
}

ShardedServerOptions ShardedOptions(int shards, int threads) {
  ShardedServerOptions options;
  options.base.rates = paper::Rates();
  options.base.dynamic_stream_reserve = 60;
  options.base.warmup_minutes = 300.0;
  options.base.measurement_minutes = 3000.0;
  options.base.seed = 17;
  options.shards = shards;
  options.threads = threads;
  options.window_minutes = 50.0;
  return options;
}

// Sharded reports are byte-identical for every shard and thread count
// (DESIGN.md §12), so all three rows share one digest.
TEST(ReportGoldenTest, Sharded) {
  const struct {
    int shards;
    uint64_t digest;
  } kGolden[] = {
      {1, 0x4b8638084b24e343ull},
      {4, 0x4b8638084b24e343ull},
      {8, 0x4b8638084b24e343ull},
  };
  for (const auto& golden : kGolden) {
    const auto report = RunShardedServerSimulation(
        FourMovies(), ShardedOptions(golden.shards, golden.shards > 1 ? 2 : 1));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Fnv1a(report->ToString()), golden.digest)
        << golden.shards << " shards";
  }
}

}  // namespace
}  // namespace vod
