// Resident-service throughput: the full daemon data path — TCP mesh,
// SessionMux, JobScheduler, Phase-1 cache — driven in-process by three
// party threads, so the numbers isolate the service layer from process
// startup and the control socket.
//
// Two waves of jobs run through each party's scheduler. The COLD wave
// uses a distinct cohort per job (every job pays Phase 1); the REPEAT
// wave resubmits the same cohorts, so every job must hit the Phase-1
// cache. Reported per wave: jobs/sec (slowest party's wall clock over
// the whole wave) and the p50/p95 of per-job latency (submit ->
// terminal, queue time included). With --json PATH the numbers land in
// the bench_json.h schema for bench/compare_bench.py; the checksum is
// the FNV-1a combination of every job's result checksum, which the
// comparison uses to hold the service path bit-identical across runs.
//
//   bench_service_throughput [--jobs 12] [--concurrent 4]
//     [--variants 32] [--samples 64] [--covariates 3]
//     [--json BENCH_service.json]

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/scan_result.h"
#include "data/workloads.h"
#include "service/job.h"
#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/session_mux.h"
#include "transport/tcp_transport.h"
#include "util/fnv1a.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace {

using namespace dash;

std::vector<uint16_t> FreePorts(int count) {
  std::vector<uint16_t> ports;
  std::vector<int> fds;
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DASH_CHECK(fd >= 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    DASH_CHECK(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0);
    socklen_t len = sizeof(addr);
    DASH_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                             &len) == 0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

struct Args {
  int64_t jobs = 12;
  int64_t concurrent = 4;
  int64_t variants = 32;
  int64_t samples = 64;
  int64_t covariates = 3;
  std::string json_path;
};

// All party threads rendezvous here so a wave's clock starts together.
class Barrier {
 public:
  explicit Barrier(int count) : count_(count) {}
  void Arrive() {
    MutexLock lock(&mu_);
    const int64_t generation = generation_;
    if (++arrived_ == count_) {
      arrived_ = 0;
      ++generation_;
      cv_.NotifyAll();
    } else {
      while (generation_ == generation) cv_.Wait(&mu_);
    }
  }

 private:
  Mutex mu_{LockRank::kLeaf};
  CondVar cv_;
  const int count_;
  int arrived_ DASH_GUARDED_BY(mu_) = 0;
  int64_t generation_ DASH_GUARDED_BY(mu_) = 0;
};

// One wave as one party's scheduler saw it.
struct WaveResult {
  double seconds = 0.0;                 // first submit -> last terminal
  std::vector<double> latency_seconds;  // per job, submit -> terminal
  std::vector<uint64_t> checksums;      // per job, result identity
  int64_t cache_hits = 0;
};

JobSpec SpecFor(uint32_t job_id, const std::string& cohort, const Args& a) {
  JobSpec spec;
  spec.job_id = job_id;
  spec.cohort_key = cohort;
  spec.variants = a.variants;
  spec.samples_per_party = a.samples;
  spec.covariates = a.covariates;
  // The cohort decides the data; repeat jobs must regenerate it exactly.
  spec.data_seed = 100 + std::hash<std::string>{}(cohort) % 1000;
  return spec;
}

// Submits `specs` back-to-back and polls until every job settles.
WaveResult RunWave(JobScheduler* scheduler, const std::vector<JobSpec>& specs) {
  WaveResult wave;
  Stopwatch timer;
  for (const JobSpec& spec : specs) {
    const Status s = scheduler->Submit(spec);
    DASH_CHECK(s.ok()) << "submit " << spec.job_id << ": " << s;
  }
  for (const JobSpec& spec : specs) {
    for (;;) {
      const auto record = scheduler->Query(spec.job_id);
      DASH_CHECK(record.ok()) << record.status();
      if (record->state == JobState::kDone) {
        wave.latency_seconds.push_back(record->queue_seconds +
                                       record->run_seconds);
        wave.checksums.push_back(record->checksum);
        if (record->metrics.phase1_cache_hit) ++wave.cache_hits;
        break;
      }
      DASH_CHECK(record->state == JobState::kQueued ||
                 record->state == JobState::kRunning)
          << "job " << spec.job_id << " failed: " << record->error;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  wave.seconds = timer.ElapsedSeconds();
  return wave;
}

double Percentile(std::vector<double> values, double pct) {
  DASH_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// FNV-1a over whole 64-bit words rather than bytes (Fnv1aBytes would
// give different, unpinned values), with the tree's basis and prime.
uint64_t CombineChecksums(const std::vector<uint64_t>& checksums) {
  uint64_t h = kDashFnvBasis;
  for (const uint64_t c : checksums) h = (h ^ c) * kFnvPrime;
  return h;
}

void AddEntry(std::vector<dash_bench::BenchEntry>* entries, const Args& a,
              const std::string& name, double seconds, double jobs_per_sec,
              uint64_t checksum) {
  dash_bench::BenchEntry e;
  // No "/" in the name: these rows are identity- and regression-tracked
  // by compare_bench.py but exempt from the kernel speedup gate.
  e.name = name;
  e.n = a.samples;
  e.m = a.variants;
  e.k = a.covariates;
  e.p = a.jobs;
  e.ns = seconds * 1e9;
  e.gb_per_s = jobs_per_sec;  // jobs/sec for throughput rows, else 0
  e.checksum = checksum;
  entries->push_back(e);
}

int RunBench(const Args& a) {
  constexpr int kParties = 3;
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(kParties)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }

  // Wave 1 (cold): a distinct cohort per job. Wave 2 (repeat): the same
  // cohorts under fresh job ids — all Phase-1 state comes from cache.
  std::vector<JobSpec> cold;
  std::vector<JobSpec> repeat;
  for (int64_t j = 0; j < a.jobs; ++j) {
    const std::string cohort = "bench-cohort-" + std::to_string(j);
    cold.push_back(SpecFor(static_cast<uint32_t>(1 + j), cohort, a));
    repeat.push_back(SpecFor(static_cast<uint32_t>(1 + a.jobs + j), cohort, a));
  }

  Barrier barrier(kParties);
  std::vector<WaveResult> cold_waves(kParties);
  std::vector<WaveResult> repeat_waves(kParties);
  std::vector<std::thread> threads;
  for (int party = 0; party < kParties; ++party) {
    threads.emplace_back([&, party] {
      TcpTransportOptions tcp_options;
      tcp_options.connect_timeout_ms = 10000;
      auto tcp = TcpTransport::Connect(cluster, party, tcp_options);
      DASH_CHECK(tcp.ok()) << tcp.status();
      SessionMux mux(tcp.value().get());
      Phase1Cache cache(static_cast<size_t>(a.jobs) + 4);

      JobSchedulerOptions scheduler_options;
      scheduler_options.max_concurrent = static_cast<int>(a.concurrent);
      scheduler_options.max_queued = static_cast<int>(2 * a.jobs);
      JobScheduler scheduler(
          [&](const JobSpec& spec) -> Result<ScanSession> {
            DASH_ASSIGN_OR_RETURN(auto channel, mux.OpenSession(spec.job_id));
            ScanSession session;
            SessionChannel* raw = channel.get();
            session.transport = std::move(channel);
            session.abort = [raw](const Status& s) { raw->Abort(s); };
            return session;
          },
          [&](Transport* transport, const JobSpec& spec,
              Phase1State* phase1) -> Result<SecureScanOutput> {
            GwasWorkloadOptions data;
            data.party_sizes.assign(kParties, spec.samples_per_party);
            data.num_variants = spec.variants;
            data.num_covariates = spec.covariates;
            data.num_causal = spec.variants < 2 ? spec.variants : 2;
            data.seed = spec.data_seed;
            DASH_ASSIGN_OR_RETURN(const ScanWorkload workload,
                                  MakeGwasWorkload(data));
            SecureScanOptions options;
            options.aggregation = spec.mode;
            options.seed = spec.protocol_seed;
            return RunPartySecureScan(
                transport, workload.parties[static_cast<size_t>(party)],
                options, phase1);
          },
          &cache, scheduler_options);

      barrier.Arrive();
      cold_waves[static_cast<size_t>(party)] = RunWave(&scheduler, cold);
      barrier.Arrive();
      repeat_waves[static_cast<size_t>(party)] = RunWave(&scheduler, repeat);
      scheduler.Shutdown();
    });
  }
  for (auto& t : threads) t.join();

  // The wave is done when the SLOWEST party settled its last job.
  double cold_s = 0.0;
  double repeat_s = 0.0;
  for (int party = 0; party < kParties; ++party) {
    cold_s = std::max(cold_s, cold_waves[static_cast<size_t>(party)].seconds);
    repeat_s =
        std::max(repeat_s, repeat_waves[static_cast<size_t>(party)].seconds);
    // Bit-identity across parties, wave by wave, job by job.
    DASH_CHECK(cold_waves[static_cast<size_t>(party)].checksums ==
               cold_waves[0].checksums)
        << "cold-wave checksums diverged between parties";
    DASH_CHECK(repeat_waves[static_cast<size_t>(party)].checksums ==
               repeat_waves[0].checksums)
        << "repeat-wave checksums diverged between parties";
  }
  // The repeat wave reuses identical cohorts, so results must match the
  // cold wave bit for bit AND every repeat job must have skipped
  // Phase 1 via the cache.
  DASH_CHECK(repeat_waves[0].checksums == cold_waves[0].checksums)
      << "repeat wave diverged from the cold wave";
  for (int party = 0; party < kParties; ++party) {
    DASH_CHECK(repeat_waves[static_cast<size_t>(party)].cache_hits == a.jobs)
        << "party " << party << " missed the Phase-1 cache on the repeat wave";
    DASH_CHECK(cold_waves[static_cast<size_t>(party)].cache_hits == 0)
        << "party " << party << " claims a cache hit on a fresh cohort";
  }

  const uint64_t checksum = CombineChecksums(cold_waves[0].checksums);
  const double cold_rate = static_cast<double>(a.jobs) / cold_s;
  const double repeat_rate = static_cast<double>(a.jobs) / repeat_s;
  const double cold_p50 = Percentile(cold_waves[0].latency_seconds, 50.0);
  const double cold_p95 = Percentile(cold_waves[0].latency_seconds, 95.0);
  const double repeat_p50 = Percentile(repeat_waves[0].latency_seconds, 50.0);
  const double repeat_p95 = Percentile(repeat_waves[0].latency_seconds, 95.0);

  std::printf("=== resident service: %lld jobs, %lld concurrent, 3 parties "
              "(in-process mesh) ===\n",
              static_cast<long long>(a.jobs),
              static_cast<long long>(a.concurrent));
  std::printf("%-12s | %9s %10s %10s %10s\n", "wave", "wall s", "jobs/s",
              "p50 ms", "p95 ms");
  std::printf("%-12s | %9.3f %10.2f %10.2f %10.2f\n", "cold", cold_s,
              cold_rate, cold_p50 * 1e3, cold_p95 * 1e3);
  std::printf("%-12s | %9.3f %10.2f %10.2f %10.2f\n", "repeat(cached)",
              repeat_s, repeat_rate, repeat_p50 * 1e3, repeat_p95 * 1e3);
  std::printf("combined checksum %016" PRIx64 "\n", checksum);
  std::printf(
      "\nexpected shape: repeat >= cold on jobs/s (Phase 1 skipped via the\n"
      "cache), identical checksums wave-to-wave and party-to-party; p95\n"
      "tracks queueing once jobs > concurrent.\n");

  if (!a.json_path.empty()) {
    std::vector<dash_bench::BenchEntry> entries;
    AddEntry(&entries, a, "service_cold_jobs_per_sec", cold_s, cold_rate,
             checksum);
    AddEntry(&entries, a, "service_cold_latency_p50", cold_p50, 0.0, checksum);
    AddEntry(&entries, a, "service_cold_latency_p95", cold_p95, 0.0, checksum);
    AddEntry(&entries, a, "service_cached_jobs_per_sec", repeat_s, repeat_rate,
             checksum);
    AddEntry(&entries, a, "service_cached_latency_p50", repeat_p50, 0.0,
             checksum);
    AddEntry(&entries, a, "service_cached_latency_p95", repeat_p95, 0.0,
             checksum);
    if (!dash_bench::WriteBenchJson(a.json_path, "service_throughput",
                                    entries)) {
      std::fprintf(stderr, "failed to write %s\n", a.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", a.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_i64 = [&](int64_t* out) {
      DASH_CHECK(i + 1 < argc) << arg << " needs a value";
      *out = std::strtoll(argv[++i], nullptr, 10);
    };
    if (arg == "--jobs") {
      next_i64(&args.jobs);
    } else if (arg == "--concurrent") {
      next_i64(&args.concurrent);
    } else if (arg == "--variants") {
      next_i64(&args.variants);
    } else if (arg == "--samples") {
      next_i64(&args.samples);
    } else if (arg == "--covariates") {
      next_i64(&args.covariates);
    } else if (arg == "--json") {
      DASH_CHECK(i + 1 < argc) << "--json needs a path";
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  DASH_CHECK(args.jobs > 0 && args.concurrent > 0);
  return RunBench(args);
}
