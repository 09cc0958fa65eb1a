#include "scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "analysis/analyzer.hpp"
#include "obs/obs.hpp"

namespace dear::scenario {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::uint64_t counter_delta(
    const std::array<std::uint64_t, obs::kCounterCount>& before,
    const std::array<std::uint64_t, obs::kCounterCount>& after, obs::Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return after[i] - before[i];
}

/// Samples the worker-local metric deltas around one scenario run. All of
/// the scenario's runtime objects are destroyed inside run_scenario, so
/// their teardown flushes are visible in the after-read on this thread.
[[nodiscard]] ScenarioObs sample_obs(const std::array<std::uint64_t, obs::kCounterCount>& before,
                                     const std::array<std::uint64_t, obs::kCounterCount>& after) {
  ScenarioObs obs_row;
  obs_row.sampled = true;
  obs_row.worker = obs::Registry::local_ordinal();
  obs_row.sim_events = counter_delta(before, after, obs::Counter::kSimEventsProcessed);
  obs_row.net_packets = counter_delta(before, after, obs::Counter::kNetPacketsSent);
  obs_row.net_drops = counter_delta(before, after, obs::Counter::kNetPacketsDropped);
  obs_row.net_dups = counter_delta(before, after, obs::Counter::kNetPacketsDuplicated);
  obs_row.msgs_sent = counter_delta(before, after, obs::Counter::kSomeipMsgsSent) +
                      counter_delta(before, after, obs::Counter::kLocalMsgsSent);
  obs_row.msgs_received = counter_delta(before, after, obs::Counter::kSomeipMsgsReceived) +
                          counter_delta(before, after, obs::Counter::kLocalMsgsReceived);
  obs_row.wire_bytes = counter_delta(before, after, obs::Counter::kSomeipBytesSent);
  obs_row.shelf_locks = counter_delta(before, after, obs::Counter::kPoolSmallShelfLocks) +
                        counter_delta(before, after, obs::Counter::kPoolBufferShelfLocks);
  return obs_row;
}

/// Moves the calling worker onto the `ordinal`-th CPU it may run on, then
/// gives it back its full CPU mask. A load-balancing scheduler spreads a
/// pool by itself; where balancing is off (a cpuset with
/// sched_load_balance=0, as on some VMs) new threads tend to start on
/// their creator's CPU and stay there, and a 4-worker batch ran no faster
/// than a serial one. The thread stays free to migrate afterwards. Best
/// effort: a failed call leaves the thread where it is.
void start_on_cpu(std::size_t ordinal) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) <= 1) {
    return;
  }
  std::size_t skip = ordinal % static_cast<std::size_t>(CPU_COUNT(&allowed));
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- != 0) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
      pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
    }
    return;
  }
#else
  (void)ordinal;
#endif
}

/// Evaluates the digest-invariance groups in place. Scenario order within
/// `report.results` is matrix order, so the reference member of each
/// group (its first row) is stable across worker counts.
void check_invariants(CampaignReport& report) {
  struct Group {
    std::uint64_t reference_index{0};
    std::uint64_t output_digest{0};
    std::uint64_t tag_digest{0};
    std::size_t members{0};
  };
  std::map<std::uint64_t, Group> groups;
  for (ScenarioResult& row : report.results) {
    if (!row.spec.expect_deterministic()) {
      continue;
    }
    row.determinism_checked = true;
    ++report.determinism_checked_runs;
    const std::uint64_t key = row.spec.digest_group();
    auto [it, inserted] = groups.try_emplace(key);
    Group& group = it->second;
    if (inserted) {
      group.reference_index = row.spec.index;
      group.output_digest = row.outcome.output_digest;
      group.tag_digest = row.outcome.tag_digest;
    }
    ++group.members;
    if (row.outcome.output_digest != group.output_digest ||
        row.outcome.tag_digest != group.tag_digest) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "scenario %" PRIu64 " (%s): digests %016" PRIx64 "/%016" PRIx64
                    " differ from group reference scenario %" PRIu64 " (%016" PRIx64
                    "/%016" PRIx64 ")",
                    row.spec.index, row.spec.name.c_str(), row.outcome.output_digest,
                    row.outcome.tag_digest, group.reference_index, group.output_digest,
                    group.tag_digest);
      report.violations.emplace_back(buffer);
    }
  }
  report.determinism_groups = groups.size();
}

/// Derives one TimingVerdict from a static analysis report.
[[nodiscard]] TimingVerdict to_verdict(const analysis::Report& analyzed) {
  TimingVerdict verdict;
  verdict.evaluated = true;
  for (const analysis::Diagnostic& diagnostic : analyzed.diagnostics) {
    if (diagnostic.rule == analysis::Rule::kDeadlineBelowWcet ||
        diagnostic.rule == analysis::Rule::kChainWcetExceedsDeadline) {
      verdict.predicted_deadline_miss = true;
    }
    if (diagnostic.rule == analysis::Rule::kChainBudgetExceeded) {
      verdict.budget_exceeded = true;
    }
  }
  for (const analysis::ChainBound& chain : analyzed.timing.chains) {
    if (chain.logical_latency > verdict.chain_latency_max_ns) {
      verdict.chain_latency_max_ns = chain.logical_latency;
      verdict.chain_budget_ns = chain.budget;
    }
  }
  return verdict;
}

/// Annotates every row with the static timing verdict. The fact table
/// only depends on the workload and the two timing scales, so the
/// (build-only) app construction is memoized on that key.
void annotate_timing(CampaignReport& report) {
  std::map<std::string, TimingVerdict> memo;
  for (ScenarioResult& row : report.results) {
    char key[96];
    std::snprintf(key, sizeof(key), "%s|%.6f|%.6f",
                  std::string(to_string(row.spec.workload)).c_str(), row.spec.deadline_scale,
                  row.spec.exec_time_scale);
    auto [it, inserted] = memo.try_emplace(key);
    if (inserted) {
      analysis::AnalyzeOptions options;
      options.timing = true;
      it->second = to_verdict(analysis::analyze_spec(row.spec, options));
    }
    row.timing = it->second;
  }
}

}  // namespace

std::size_t CampaignRunner::worker_count() const noexcept {
  if (options_.workers != 0) {
    return options_.workers;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware != 0 ? hardware : 1;
}

CampaignReport CampaignRunner::run(const CampaignSpec& campaign) const {
  return run(campaign.name, campaign.expand(), campaign.campaign_seed);
}

CampaignReport CampaignRunner::run(std::string name, std::vector<ScenarioSpec> scenarios,
                                   std::uint64_t campaign_seed) const {
  CampaignReport report;
  report.name = std::move(name);
  report.campaign_seed = campaign_seed;
  report.workers = worker_count();

  report.results.resize(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].index = i;
    if (scenarios[i].name.empty()) {
      scenarios[i].name = scenarios[i].describe();
    }
    report.results[i].spec = std::move(scenarios[i]);
  }

  const obs::SpanScope campaign_span(obs::SpanCategory::kCampaign, report.name);
  const auto batch_start = Clock::now();
  // Workers claim scenarios off a shared cursor in small batches and write
  // into their (cache-line aligned) matrix slots; no other cross-thread
  // state exists, so the report is independent of claim order by
  // construction. Each worker's memory traffic stays in its own
  // thread-local pool magazines (SmallBlockPool/BufferPool): the first
  // scenario warms them, every later scenario reuses them as a per-worker
  // scratch arena, and the registered drain returns them to the global
  // shelves when the worker exits — steady state touches no shared
  // allocator state at all (asserted by tests/perf/alloc_count_test.cpp).
  const std::size_t total = report.results.size();
  std::atomic<std::size_t> cursor{0};
  // Never oversubscribe the machine: scenarios are CPU-bound, so a pool
  // beyond the core count only adds context-switch and cache-thrash
  // overhead (the old 2-worker-slower-than-serial row on a 1-core host).
  // report.workers keeps the *requested* count — results are worker-count
  // independent by construction, so the effective pool size is purely a
  // wall-time decision.
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t pool_size =
      std::min({report.workers, std::max<std::size_t>(total, 1),
                static_cast<std::size_t>(hardware != 0 ? hardware : 1)});
  // Batched claims amortize the cursor; capped so the tail stays balanced.
  const std::size_t claim =
      std::clamp<std::size_t>(total / (std::max<std::size_t>(pool_size, 1) * 16), 1, 8);
  auto work = [&]() {
    while (true) {
      const std::size_t begin = cursor.fetch_add(claim, std::memory_order_relaxed);
      if (begin >= total) {
        return;
      }
      const std::size_t end = std::min(begin + claim, total);
      for (std::size_t i = begin; i < end; ++i) {
        ScenarioResult& slot = report.results[i];
        const bool sampling = obs::Registry::metrics_enabled();
        std::array<std::uint64_t, obs::kCounterCount> before{};
        if (sampling) {
          obs::Registry::read_local_counters(before);
        }
        const auto start = Clock::now();
        {
          const obs::SpanScope span(obs::SpanCategory::kScenario, slot.spec.name);
          slot.outcome = run_scenario(slot.spec);
        }
        slot.wall_seconds = seconds_since(start);
        if (sampling) {
          std::array<std::uint64_t, obs::kCounterCount> after{};
          obs::Registry::read_local_counters(after);
          slot.obs = sample_obs(before, after);
          obs::count(obs::Counter::kCampaignScenarios);
          obs::observe(obs::Hist::kCampaignScenarioWallMs, slot.wall_seconds * 1e3);
        }
      }
    }
  };
  if (pool_size <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w) {
      pool.emplace_back([&work, w] {
        start_on_cpu(w);
        work();
      });
    }
    for (std::thread& worker : pool) {
      worker.join();
    }
  }
  report.wall_seconds = seconds_since(batch_start);

  if (options_.check_invariants) {
    check_invariants(report);
  }
  if (options_.annotate_timing) {
    annotate_timing(report);
  }
  return report;
}

}  // namespace dear::scenario
