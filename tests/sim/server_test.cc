#include "sim/server.h"

#include <gtest/gtest.h>

#include "workload/paper_presets.h"

namespace vod {
namespace {

PartitionLayout MakeLayout(double l, int n, double b) {
  auto layout = PartitionLayout::FromBuffer(l, n, b);
  EXPECT_TRUE(layout.ok());
  return *layout;
}

std::vector<ServerMovieSpec> TwoMovies() {
  std::vector<ServerMovieSpec> movies;
  movies.push_back({"alpha", MakeLayout(120.0, 40, 80.0), 0.5, nullptr,
                    paper::Fig7MixedBehavior()});
  movies.push_back({"beta", MakeLayout(90.0, 30, 45.0), 0.25, nullptr,
                    paper::Fig7SingleOpBehavior(VcrOp::kFastForward)});
  return movies;
}

ServerOptions BaseOptions(int64_t reserve) {
  ServerOptions options;
  options.rates = paper::Rates();
  options.dynamic_stream_reserve = reserve;
  options.warmup_minutes = 500.0;
  options.measurement_minutes = 10000.0;
  options.seed = 17;
  return options;
}

TEST(ServerTest, Validation) {
  EXPECT_TRUE(RunServerSimulation({}, BaseOptions(100))
                  .status()
                  .IsInvalidArgument());
  auto movies = TwoMovies();
  movies[0].arrival_rate_per_minute = 0.0;
  EXPECT_TRUE(RunServerSimulation(movies, BaseOptions(100))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunServerSimulation(TwoMovies(), BaseOptions(-1))
                  .status()
                  .IsInvalidArgument());
}

TEST(ServerTest, DeterministicAndPerMovieReports) {
  const auto a = RunServerSimulation(TwoMovies(), BaseOptions(500));
  const auto b = RunServerSimulation(TwoMovies(), BaseOptions(500));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->movies.size(), 2u);
  EXPECT_EQ(a->movies[0].name, "alpha");
  EXPECT_EQ(a->movies[1].name, "beta");
  EXPECT_EQ(a->movies[0].report.total_resumes,
            b->movies[0].report.total_resumes);
  EXPECT_DOUBLE_EQ(a->movies[1].report.hit_probability,
                   b->movies[1].report.hit_probability);
  // The busier movie sees more resumes.
  EXPECT_GT(a->movies[0].report.total_resumes,
            a->movies[1].report.total_resumes);
}

TEST(ServerTest, ReportsExecutedEventsDeterministically) {
  const auto a = RunServerSimulation(TwoMovies(), BaseOptions(500));
  const auto b = RunServerSimulation(TwoMovies(), BaseOptions(500));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->executed_events, 0u);
  EXPECT_EQ(a->executed_events, b->executed_events);
  // Diagnostics only: the count is not part of the report text.
  EXPECT_EQ(a->ToString().find("executed"), std::string::npos);
}

TEST(ServerTest, AmpleReserveNeverRefuses) {
  const auto report = RunServerSimulation(TwoMovies(), BaseOptions(2000));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->refused_acquisitions, 0);
  EXPECT_DOUBLE_EQ(report->refusal_probability, 0.0);
  EXPECT_EQ(report->total_blocked_vcr, 0);
  EXPECT_EQ(report->total_stalls, 0);
  EXPECT_GT(report->granted_acquisitions, 0);
  EXPECT_LE(report->peak_reserve_in_use, 2000);
}

TEST(ServerTest, TightReserveBlocksAndStalls) {
  const auto report = RunServerSimulation(TwoMovies(), BaseOptions(5));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->refused_acquisitions, 0);
  EXPECT_GT(report->refusal_probability, 0.05);
  EXPECT_GT(report->total_blocked_vcr, 0);
  EXPECT_LE(report->peak_reserve_in_use, 5);
  EXPECT_LE(report->mean_reserve_in_use, 5.0);
}

TEST(ServerTest, RefusalProbabilityDecreasesWithReserve) {
  double previous = 1.1;
  for (int64_t reserve : {2, 10, 50, 400}) {
    const auto report =
        RunServerSimulation(TwoMovies(), BaseOptions(reserve));
    ASSERT_TRUE(report.ok()) << reserve;
    // Non-increasing, and strictly decreasing while refusals still occur.
    if (previous > 0.0) {
      EXPECT_LT(report->refusal_probability, previous) << reserve;
    } else {
      EXPECT_DOUBLE_EQ(report->refusal_probability, 0.0) << reserve;
    }
    previous = report->refusal_probability;
  }
  EXPECT_LT(previous, 0.01);
}

TEST(ServerTest, PiggybackShrinksReserveDemand) {
  ServerOptions without = BaseOptions(3000);
  ServerOptions with = BaseOptions(3000);
  with.piggyback.enabled = true;
  with.piggyback.speed_delta = 0.05;
  const auto a = RunServerSimulation(TwoMovies(), without);
  const auto b = RunServerSimulation(TwoMovies(), with);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b->mean_reserve_in_use, a->mean_reserve_in_use);
}

TEST(ServerTest, QosSurvivesSharing) {
  // Each movie's in-partition hit probability must still track its own
  // analytic model even when sharing a reserve (misses couple movies only
  // through stream availability, not through hit geometry).
  const auto report = RunServerSimulation(TwoMovies(), BaseOptions(2000));
  ASSERT_TRUE(report.ok());
  for (const auto& per_movie : report->movies) {
    EXPECT_GT(per_movie.report.hit_probability_in_partition, 0.4)
        << per_movie.name;
    EXPECT_LE(per_movie.report.max_wait_minutes,
              per_movie.name == "alpha" ? 1.0 + 1e-9 : 1.5 + 1e-9)
        << per_movie.name;
  }
}

}  // namespace
}  // namespace vod
