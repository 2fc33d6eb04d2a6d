// dashbench_tool: the end-to-end benchmark's helper binary. run.py drives
// the shipped dash_party / dash_partyd processes; this tool supplies
// everything around them, calling only the repository's public APIs:
//
//   env        build type, flags and kernel ISAs of this build (JSON)
//   gen        one party's DASHPACK fixture, generated on its own from
//              (seed, party) and written through WritePackedStudy
//   reference  the plaintext pooled scan of a fixture: stacked-R QR,
//              per-slice ComputeLocalStatsStreamed, FinalizeScan
//   check      compares a dash_party --out CSV with a reference
//   party      the traced party harness: one party of the streamed scan
//              (or of a service-shaped job) over TcpTransport, with a
//              timing Transport decorator and a timing PanelSource
//              decorator; writes its spans and per-round totals
//   layers     isolated calls into each layer at a workload's shape
//
// Every subcommand prints one JSON object on stdout and exits 0, or
// prints a diagnosis on stderr and exits 1 (2 for bad usage).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/kernels/stats_kernels.h"
#include "core/party_local.h"
#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "linalg/qr.h"
#include "linalg/tsqr.h"
#include "mpc/fixed_point.h"
#include "mpc/masked_aggregation.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"
#include "util/chacha20.h"
#include "util/random.h"
#include "util/strings.h"

namespace {

using namespace dash;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- arguments --------------------------------------------------------

// "--key value" pairs after the subcommand; every flag takes a value.
class Args {
 public:
  bool Parse(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        std::fprintf(stderr, "bad argument %s\n", key.c_str());
        return false;
      }
      values_[key.substr(2)].push_back(argv[++i]);
    }
    return true;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second.back();
  }
  std::vector<std::string> All(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }
  int64_t Int(const std::string& key, int64_t def) const {
    if (!Has(key)) return def;
    auto parsed = ParseInt64(Str(key));
    if (!parsed.ok()) {
      std::fprintf(stderr, "--%s: %s\n", key.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(2);
    }
    return parsed.value();
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "dashbench_tool: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

// --- JSON output ------------------------------------------------------

// A flat JSON object written key by key; numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += ch;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"" + key + "\": " + json;
    return *this;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- env --------------------------------------------------------------

int CmdEnv() {
  std::string isas = "[";
  for (const kernels::StatsIsa isa : kernels::AvailableStatsIsas()) {
    if (isas.size() > 1) isas += ", ";
    isas += std::string("\"") + kernels::StatsIsaName(isa) + "\"";
  }
  isas += "]";
  JsonObject out;
  out.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Raw("isas", isas)
      .Str("build_type", DASHBENCH_BUILD_TYPE)
      .Str("cxx_flags", DASHBENCH_CXX_FLAGS);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- gen --------------------------------------------------------------

// Per-variant minor-allele frequencies and planted effects, shared by
// every party of a study (a function of the seed alone); genotypes,
// covariates and noise come from the party's own stream, so each slice
// is generated without the others.
constexpr uint64_t kMafSalt = 0x6d61665f73616c74ULL;
constexpr int64_t kCausalEvery = 997;
constexpr double kEffect = 0.12;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return SplitMix64(&state);
}

int CmdGen(const Args& args) {
  const std::string out_path = args.Str("out");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const int64_t party = args.Int("party", 0);
  const int64_t n = args.Int("samples", 0);
  const int64_t m = args.Int("variants", 0);
  const int64_t k = args.Int("covariates", 4);
  if (out_path.empty() || n < k + 1 || m < 1 || k < 1 || party < 0) {
    std::fprintf(stderr, "gen: need --out, --samples > --covariates, "
                         "--variants >= 1, --covariates >= 1\n");
    return 2;
  }
  const auto start = Clock::now();

  Rng maf_rng(Mix(seed, kMafSalt));
  std::vector<double> maf(static_cast<size_t>(m));
  for (double& f : maf) f = maf_rng.Uniform(0.05, 0.5);

  Rng rng(Mix(seed, static_cast<uint64_t>(party) + 1));
  Matrix c(n, k);
  Vector y(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    c(i, 0) = 1.0;
    y[static_cast<size_t>(i)] = 0.5 + rng.Gaussian();
    for (int64_t j = 1; j < k; ++j) {
      c(i, j) = rng.Gaussian();
      y[static_cast<size_t>(i)] += 0.2 * c(i, j);
    }
  }

  // Hardy-Weinberg genotype codes, written straight into the packed
  // column words (32 two-bit codes per word, row-major within a word).
  PackedGenotypeMatrix x(n, m);
  const int64_t wpc = x.words_per_column();
  for (int64_t j = 0; j < m; ++j) {
    const double f = maf[static_cast<size_t>(j)];
    const uint64_t t0 = static_cast<uint64_t>((1.0 - f) * (1.0 - f) * 0x1p53);
    const uint64_t t1 =
        t0 + static_cast<uint64_t>(2.0 * f * (1.0 - f) * 0x1p53);
    const bool causal = j % kCausalEvery == 0;
    uint64_t* words = x.mutable_column_words(j);
    for (int64_t w = 0; w < wpc; ++w) {
      const int64_t row0 = w * PackedGenotypeMatrix::kRowsPerWord;
      const int64_t rows =
          std::min<int64_t>(PackedGenotypeMatrix::kRowsPerWord, n - row0);
      uint64_t word = 0;
      for (int64_t r = 0; r < rows; ++r) {
        const uint64_t u = rng.NextU64() >> 11;
        const uint64_t code = u < t0 ? 0 : (u < t1 ? 1 : 2);
        word |= code << (2 * r);
        if (causal) {
          y[static_cast<size_t>(row0 + r)] += kEffect * static_cast<double>(code);
        }
      }
      words[w] = word;
    }
  }
  const double gen_s = Seconds(start, Clock::now());

  const auto write_start = Clock::now();
  const Status written = WritePackedStudy(out_path, x, y, c, seed);
  if (!written.ok()) return Fail("gen: write " + out_path, written);
  auto reader = PackedStudyReader::Open(out_path);
  if (!reader.ok()) return Fail("gen: reopen " + out_path, reader.status());

  JsonObject out;
  out.Str("path", out_path)
      .Str("fingerprint", Hex(reader.value()->fingerprint()))
      .Num("gen_s", gen_s)
      .Num("write_s", Seconds(write_start, Clock::now()));
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- reference --------------------------------------------------------

// The result file written by `reference` and read by `check`: M, then
// beta, se, tstat, pval as raw doubles.
Status WriteResultFile(const std::string& path, const ScanResult& r) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  const int64_t m = r.num_variants();
  f.write(reinterpret_cast<const char*>(&m), sizeof(m));
  for (const Vector* v : {&r.beta, &r.se, &r.tstat, &r.pval}) {
    f.write(reinterpret_cast<const char*>(v->data()),
            static_cast<std::streamsize>(v->size() * sizeof(double)));
  }
  if (!f) return IoError("cannot write " + path);
  return Status::Ok();
}

Result<ScanResult> ReadResultFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  int64_t m = 0;
  f.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!f || m < 0 || m > (int64_t{1} << 32)) {
    return DataLossError("bad reference file " + path);
  }
  ScanResult r;
  for (Vector* v : {&r.beta, &r.se, &r.tstat, &r.pval}) {
    v->resize(static_cast<size_t>(m));
    f.read(reinterpret_cast<char*>(v->data()),
           static_cast<std::streamsize>(v->size() * sizeof(double)));
  }
  if (!f) return DataLossError("truncated reference file " + path);
  return r;
}

Result<std::vector<std::unique_ptr<PackedStudyReader>>> OpenStudies(
    const std::vector<std::string>& paths) {
  std::vector<std::unique_ptr<PackedStudyReader>> readers;
  for (const std::string& path : paths) {
    DASH_ASSIGN_OR_RETURN(std::unique_ptr<PackedStudyReader> reader,
                          PackedStudyReader::Open(path));
    readers.push_back(std::move(reader));
  }
  return readers;
}

int CmdReference(const Args& args) {
  const auto start = Clock::now();
  auto opened = OpenStudies(args.All("study"));
  if (!opened.ok()) return Fail("reference: open", opened.status());
  auto& readers = opened.value();
  if (readers.empty()) {
    std::fprintf(stderr, "reference: need --study (one per party)\n");
    return 2;
  }
  // Pooled R from the stacked per-slice R factors, then each slice's
  // Q_p = C_p R^-1 and its plaintext summand.
  std::vector<PartyData> slices(readers.size());
  std::vector<Matrix> r_factors;
  int64_t total_samples = 0;
  for (size_t p = 0; p < readers.size(); ++p) {
    slices[p].y = readers[p]->phenotype();
    slices[p].c = readers[p]->covariates();
    total_samples += readers[p]->num_samples();
    auto r = PartyLocalRFactor(slices[p]);
    if (!r.ok()) return Fail("reference: local R", r.status());
    r_factors.push_back(std::move(r).value());
  }
  auto pooled_r = CombineRFactors(r_factors);
  if (!pooled_r.ok()) return Fail("reference: stacked QR", pooled_r.status());
  auto r_inverse = InvertUpperTriangular(pooled_r.value());
  if (!r_inverse.ok()) return Fail("reference: invert R", r_inverse.status());

  Vector totals;
  for (size_t p = 0; p < readers.size(); ++p) {
    const Matrix q_p = PartyLocalQ(slices[p], r_inverse.value());
    auto streamed =
        ComputeLocalStatsStreamed(readers[p].get(), slices[p].y, q_p);
    if (!streamed.ok()) return Fail("reference: kernel", streamed.status());
    const Vector& flat = streamed.value().flat;
    if (totals.empty()) totals.assign(flat.size(), 0.0);
    for (size_t i = 0; i < flat.size(); ++i) totals[i] += flat[i];
  }
  auto stats = UnflattenStats(totals, readers[0]->num_variants(),
                              readers[0]->num_covariates());
  if (!stats.ok()) return Fail("reference: unflatten", stats.status());
  stats.value().num_samples = total_samples;
  auto result = FinalizeScan(stats.value());
  if (!result.ok()) return Fail("reference: finalize", result.status());
  const Status written = WriteResultFile(args.Str("out"), result.value());
  if (!written.ok()) return Fail("reference: write", written);

  JsonObject out;
  out.Str("checksum", Hex(ScanResultChecksum(result.value())))
      .Int("variants", result.value().num_variants())
      .Int("samples", total_samples)
      .Num("seconds", Seconds(start, Clock::now()));
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- check ------------------------------------------------------------

// Relative error of `got` against `want`, scaled by the larger of
// |want| and `floor` so values near zero are judged absolutely. Both NaN
// (an untestable variant) is agreement; one NaN is infinite error.
double RelErr(double got, double want, double floor) {
  if (std::isnan(got) || std::isnan(want)) {
    return std::isnan(got) && std::isnan(want) ? 0.0 : INFINITY;
  }
  return std::fabs(got - want) / std::max(std::fabs(want), floor);
}

int CmdCheck(const Args& args) {
  auto want = ReadResultFile(args.Str("ref"));
  if (!want.ok()) return Fail("check: reference", want.status());
  const double rtol = std::stod(args.Str("rtol", "1e-6"));
  std::ifstream csv(args.Str("csv"));
  if (!csv) {
    std::fprintf(stderr, "check: cannot read %s\n", args.Str("csv").c_str());
    return 1;
  }
  const ScanResult& ref = want.value();
  std::string line;
  std::getline(csv, line);  // header
  int64_t rows = 0;
  double max_err = 0.0;
  int64_t worst = -1;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    double v[5] = {0, 0, 0, 0, 0};
    if (std::sscanf(line.c_str(), "%lf,%lf,%lf,%lf,%lf", &v[0], &v[1], &v[2],
                    &v[3], &v[4]) != 5 ||
        v[0] != static_cast<double>(rows) || rows >= ref.num_variants()) {
      max_err = INFINITY;
      worst = rows;
      break;
    }
    const size_t i = static_cast<size_t>(rows);
    const double err = std::max(
        {RelErr(v[1], ref.beta[i], 1e-3), RelErr(v[2], ref.se[i], 1e-3),
         RelErr(v[3], ref.tstat[i], 1e-3), RelErr(v[4], ref.pval[i], 1e-12)});
    if (err > max_err) {
      max_err = err;
      worst = rows;
    }
    ++rows;
  }
  const bool ok = rows == ref.num_variants() && max_err <= rtol;
  JsonObject out;
  out.Raw("ok", ok ? "true" : "false")
      .Int("rows", rows)
      .Num("max_rel_err", std::isfinite(max_err) ? max_err : 1e300)
      .Int("worst_row", worst)
      .Num("rtol", rtol);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- spans ------------------------------------------------------------

// Spans recorded at layer boundaries, kept in memory and written once
// as Chrome trace events (ph "X", microseconds) by the party harness.
class SpanLog {
 public:
  explicit SpanLog(int party)
      : party_(party),
        origin_(Clock::now()),
        wall_origin_us_(std::chrono::duration<double, std::micro>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count()) {}

  void Add(const std::string& name, const char* cat, Clock::time_point begin,
           Clock::time_point end, int64_t bytes = -1) {
    Span s{name, cat, Us(begin), Us(end) - Us(begin), bytes,
           std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  std::string Json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": %d, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f",
                    i == 0 ? "" : ", ", s.name.c_str(), s.cat, party_, s.tid,
                    s.ts_us, s.dur_us);
      out += buf;
      if (s.bytes >= 0) {
        out += ", \"args\": {\"bytes\": " + std::to_string(s.bytes) + "}";
      }
      out += "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    double ts_us;
    double dur_us;
    int64_t bytes;
    size_t tid;
  };
  // Microseconds on the wall clock, taken from one (steady, wall) pair
  // read at construction, so the parties' spans merge onto one axis.
  double Us(Clock::time_point t) const {
    return wall_origin_us_ +
           std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  const int party_;
  const Clock::time_point origin_;
  const double wall_origin_us_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Round key of protocol_model.yaml for the message tags a scan sends.
std::string RoundKey(MessageTag tag) {
  switch (tag) {
    case MessageTag::kPhase1Probe: return "phase1_probe";
    case MessageTag::kSampleCount: return "phase0_samplecount";
    case MessageTag::kRFactor: return "phase1_rfactor";
    case MessageTag::kTreeR: return "phase1_tree_merge";
    case MessageTag::kPublicKey: return "phase0b_keyagree";
    case MessageTag::kMaskedValue: return "phase2_masked";
    case MessageTag::kPlainStats: return "phase2_public";
    case MessageTag::kAdditiveShare: return "phase2_additive_share";
    case MessageTag::kShamirShare: return "phase2_shamir_share";
    case MessageTag::kPartialSum: return "phase2_reveal";
    case MessageTag::kCommit: return "phase4_commit";
    case MessageTag::kAbort: return "abort_notify";
    default: return "tag" + std::to_string(static_cast<uint32_t>(tag));
  }
}

struct RoundTotals {
  double send_s = 0.0;
  double wait_s = 0.0;
  int64_t bytes = 0;
};

// Timing decorator over a party-bound Transport, in the style of
// FaultInjectingTransport: forwards every call to `inner`, mirrors the
// sender-side accounting, and times Send (per round key, with bytes)
// and the time Receive blocks (per round key and per peer).
class TimingTransport : public Transport {
 public:
  TimingTransport(Transport* inner, SpanLog* spans)
      : Transport(inner->num_parties()),
        inner_(inner),
        spans_(spans),
        wait_by_peer_(static_cast<size_t>(inner->num_parties()), 0.0) {}

  int local_party() const override { return inner_->local_party(); }
  uint32_t session_id() const override { return inner_->session_id(); }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    Message accounting;
    accounting.from = from;
    accounting.to = to;
    accounting.tag = tag;
    accounting.payload.resize(payload.size());
    const auto begin = Clock::now();
    const Status sent = inner_->Send(from, to, tag, std::move(payload));
    const auto end = Clock::now();
    const std::string key = RoundKey(tag);
    RoundTotals& totals = rounds_[key];
    totals.send_s += Seconds(begin, end);
    totals.bytes += static_cast<int64_t>(accounting.WireSize());
    spans_->Add("transport." + key + ".send", "transport", begin, end,
                static_cast<int64_t>(accounting.WireSize()));
    if (sent.ok()) RecordSend(accounting);
    return sent;
  }

  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    const auto begin = Clock::now();
    Result<Message> msg = inner_->Receive(to, from, expected_tag);
    const auto end = Clock::now();
    const std::string key = RoundKey(expected_tag);
    rounds_[key].wait_s += Seconds(begin, end);
    if (from >= 0 && from < num_parties()) {
      wait_by_peer_[static_cast<size_t>(from)] += Seconds(begin, end);
    }
    spans_->Add("transport." + key + ".wait", "transport", begin, end);
    return msg;
  }

  bool HasPending(int to, int from) override {
    return inner_->HasPending(to, from);
  }

  void BeginRound() override {
    Transport::BeginRound();
    inner_->BeginRound();
  }

  const std::map<std::string, RoundTotals>& rounds() const { return rounds_; }
  const std::vector<double>& wait_by_peer() const { return wait_by_peer_; }

 private:
  Transport* const inner_;
  SpanLog* const spans_;
  std::map<std::string, RoundTotals> rounds_;
  std::vector<double> wait_by_peer_;
};

// Timing decorator over a PanelSource: every ReadPanel becomes a span
// carrying the panel's packed bytes (on the prefetcher's I/O thread when
// prefetch is on, which SpanLog's lock allows).
class TimingPanelSource final : public PanelSource {
 public:
  TimingPanelSource(PanelSource* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  int64_t num_samples() const override { return inner_->num_samples(); }
  int64_t num_variants() const override { return inner_->num_variants(); }
  uint64_t fingerprint() const override { return inner_->fingerprint(); }

  Status ReadPanel(int64_t panel, PackedGenotypeMatrix* out) override {
    const auto begin = Clock::now();
    const Status read = inner_->ReadPanel(panel, out);
    spans_->Add("data.read_panel", "data", begin, Clock::now(),
                out->words_per_column() * out->cols() * 8);
    return read;
  }

 private:
  PanelSource* const inner_;
  SpanLog* const spans_;
};

// --- party ------------------------------------------------------------

// A service job's cohort, derived from its spec exactly as dash_partyd
// derives it (WorkloadForSpec in examples/dash_partyd.cpp).
struct JobShape {
  int64_t variants = 512;
  int64_t samples_per_party = 512;
  int64_t covariates = 4;
  uint64_t data_seed = 1;
};

bool ParseJobShape(const std::string& text, JobShape* shape) {
  std::istringstream in(text);
  in >> shape->variants >> shape->samples_per_party >> shape->covariates >>
      shape->data_seed;
  return !in.fail();
}

Result<ScanWorkload> JobWorkload(const JobShape& shape, int num_parties) {
  GwasWorkloadOptions data;
  data.party_sizes.assign(static_cast<size_t>(num_parties),
                          shape.samples_per_party);
  data.num_variants = shape.variants;
  data.num_covariates = shape.covariates;
  data.num_causal = shape.variants < 2 ? shape.variants : 2;
  data.seed = shape.data_seed;
  return MakeGwasWorkload(data);
}

std::string RoundsJson(const std::map<std::string, RoundTotals>& rounds) {
  JsonObject out;
  for (const auto& [key, t] : rounds) {
    JsonObject r;
    r.Num("send_s", t.send_s).Num("wait_s", t.wait_s).Int("bytes", t.bytes);
    out.Raw(key, r.Done());
  }
  return out.Done();
}

int CmdParty(const Args& args) {
  const int party = static_cast<int>(args.Int("party", -1));
  auto cluster = ParseClusterList(args.Str("cluster"));
  if (!cluster.ok()) return Fail("party: --cluster", cluster.status());
  const bool traced = args.Int("trace", 1) != 0;
  const bool job_mode = args.Has("job");
  if (party < 0 || party >= cluster.value().num_parties() ||
      job_mode == args.Has("study")) {
    std::fprintf(stderr, "party: need --party and one of --study/--job\n");
    return 2;
  }
  SpanLog spans(party);

  // Input: this party's DASHPACK slice, or a service job's cohort.
  std::unique_ptr<PackedStudyReader> reader;
  PartyData job_data;
  const auto open_begin = Clock::now();
  if (job_mode) {
    JobShape shape;
    if (!ParseJobShape(args.Str("job"), &shape)) {
      std::fprintf(stderr, "party: --job wants \"M N K SEED\"\n");
      return 2;
    }
    auto workload = JobWorkload(shape, cluster.value().num_parties());
    if (!workload.ok()) return Fail("party: job cohort", workload.status());
    job_data = std::move(workload.value().parties[static_cast<size_t>(party)]);
  } else {
    auto opened = PackedStudyReader::Open(args.Str("study"));
    if (!opened.ok()) return Fail("party: --study", opened.status());
    reader = std::move(opened).value();
  }
  const auto open_end = Clock::now();
  if (traced) spans.Add(job_mode ? "data.cohort_gen" : "data.open", "data",
                        open_begin, open_end);

  TcpTransportOptions tcp_options;
  const auto connect_begin = Clock::now();
  auto tcp = TcpTransport::Connect(cluster.value(), party, tcp_options);
  if (!tcp.ok()) return Fail("party: connect", tcp.status());
  const auto ready = Clock::now();
  if (traced) spans.Add("transport.connect", "transport", connect_begin, ready);
  // Same readiness line as dash_party, read by run.py.
  std::fprintf(stderr, "[party %d] mesh up\n", party);

  TimingTransport timing(tcp.value().get(), &spans);
  Transport* transport = traced ? static_cast<Transport*>(&timing)
                                : static_cast<Transport*>(tcp.value().get());
  SecureScanOptions options;
  std::vector<std::string> results;  // checksum per scan, hex
  if (job_mode) {
    // A cold job (Phase-1 state empty: Phases 0-1 run) then a warm one
    // on the same cohort (Phase-1 cache hit), as the daemon runs them.
    Phase1State phase1;
    for (int scan = 0; scan < 2; ++scan) {
      const auto begin = Clock::now();
      auto output = RunPartySecureScan(transport, job_data, options, &phase1);
      if (!output.ok()) return Fail("party: job scan", output.status());
      if (traced) {
        spans.Add(scan == 0 ? "job.miss" : "job.hit", "scan", begin,
                  Clock::now());
      }
      results.push_back(Hex(ScanResultChecksum(output.value().result)));
    }
  } else {
    TimingPanelSource source(reader.get(), &spans);
    StreamingPartyScan stream;
    stream.source = traced ? static_cast<PanelSource*>(&source)
                           : static_cast<PanelSource*>(reader.get());
    auto output = RunPartySecureScanStreamed(
        transport, reader->phenotype(), reader->covariates(), stream, options);
    if (!output.ok()) return Fail("party: scan", output.status());
    results.push_back(Hex(ScanResultChecksum(output.value().result)));
  }
  const auto done = Clock::now();
  if (traced) spans.Add("scan", "scan", ready, done);

  double wait_max_peer = 0.0;
  for (const double w : timing.wait_by_peer()) {
    wait_max_peer = std::max(wait_max_peer, w);
  }
  std::string checksums = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    checksums += (i == 0 ? "\"" : ", \"") + results[i] + "\"";
  }
  checksums += "]";
  JsonObject out;
  out.Int("party", party)
      .Raw("checksums", checksums)
      .Num("connect_s", Seconds(connect_begin, ready))
      .Num("scan_s", Seconds(ready, done))
      .Raw("rounds", RoundsJson(timing.rounds()))
      .Num("wait_max_peer_s", wait_max_peer);
  if (args.Has("spans")) {
    std::ofstream f(args.Str("spans"), std::ios::trunc);
    f << spans.Json() << "\n";
    if (!f) {
      std::fprintf(stderr, "party: cannot write %s\n",
                   args.Str("spans").c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- layers -----------------------------------------------------------

// Median wall time of `reps` calls of fn.
template <typename Fn>
double TimeMedian(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto begin = Clock::now();
    fn();
    times.push_back(Seconds(begin, Clock::now()));
  }
  return Median(times);
}

// The masked-aggregation layer at one summand length: encode, mask with
// P-1 pairwise keys, and open against P-1 peers' masked vectors.
Status TimeMpc(const Vector& flat, int num_parties, int reps,
               JsonObject* out) {
  const FixedPointCodec codec;
  // keys[p][q]: the key parties p and q share.
  std::vector<std::vector<Secret<ChaCha20Rng::Key>>> keys(
      static_cast<size_t>(num_parties));
  for (int p = 0; p < num_parties; ++p) {
    for (int q = 0; q < num_parties; ++q) {
      const uint64_t lo = static_cast<uint64_t>(std::min(p, q));
      const uint64_t hi = static_cast<uint64_t>(std::max(p, q));
      keys[static_cast<size_t>(p)].emplace_back(
          ChaCha20Rng::KeyFromSeed(lo * 131 + hi + 1));
    }
  }
  // Every party contributes the same summand here; the layer's work does
  // not depend on the values.
  Result<Secret<RingVector>> encoded = codec.EncodeSecretVector(
      Secret<Vector>(flat));
  DASH_RETURN_IF_ERROR(encoded.status());
  const double encode_s = TimeMedian(reps, [&] {
    encoded = codec.EncodeSecretVector(Secret<Vector>(flat));
  });
  DASH_RETURN_IF_ERROR(encoded.status());
  std::vector<Masked<RingVector>> masked;
  for (int p = 0; p < num_parties; ++p) {
    masked.push_back(ApplyPairwiseMasks(p, encoded.value(),
                                        keys[static_cast<size_t>(p)], 1));
  }
  const double mask_s = TimeMedian(reps, [&] {
    masked[0] = ApplyPairwiseMasks(0, encoded.value(), keys[0], 1);
  });
  std::vector<RingVector> peers;
  for (int p = 1; p < num_parties; ++p) {
    peers.push_back(masked[static_cast<size_t>(p)].wire());
  }
  Result<Vector> opened = OpenMaskedTotal(masked[0], peers, codec);
  const double open_s = TimeMedian(reps, [&] {
    opened = OpenMaskedTotal(masked[0], peers, codec);
  });
  DASH_RETURN_IF_ERROR(opened.status());
  // The masks cancel: the opened total is P times the summand.
  for (size_t i = 0; i < flat.size(); i += 997) {
    const double want = num_parties * flat[i];
    if (std::fabs(opened.value()[i] - want) > 1e-6 * (1.0 + std::fabs(want))) {
      return DataLossError("masked total does not open to the plain sum");
    }
  }
  out->Num("mpc.encode_s", encode_s)
      .Num("mpc.mask_s", mask_s)
      .Num("mpc.open_s", open_s);
  return Status::Ok();
}

// Finalization on totals of P identical summands.
Status TimeFinalize(const Vector& flat, int64_t m, int64_t k,
                    int64_t total_samples, int num_parties, int reps,
                    JsonObject* out) {
  Vector totals(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) totals[i] = num_parties * flat[i];
  Status status = Status::Ok();
  const double finalize_s = TimeMedian(reps, [&] {
    auto stats = UnflattenStats(totals, m, k);
    if (!stats.ok()) { status = stats.status(); return; }
    stats.value().num_samples = total_samples;
    auto result = FinalizeScan(stats.value());
    if (!result.ok()) status = result.status();
  });
  DASH_RETURN_IF_ERROR(status);
  out->Num("core.finalize_s", finalize_s);
  return Status::Ok();
}

Status LayersForStudy(const std::string& path, int num_parties, int reps,
                      JsonObject* out) {
  std::unique_ptr<PackedStudyReader> reader;
  Status status = Status::Ok();
  const double open_s = TimeMedian(reps, [&] {
    auto opened = PackedStudyReader::Open(path);
    if (!opened.ok()) { status = opened.status(); return; }
    reader = std::move(opened).value();
  });
  DASH_RETURN_IF_ERROR(status);
  const int64_t n = reader->num_samples();
  const int64_t m = reader->num_variants();
  const int64_t k = reader->num_covariates();

  // Every panel read once, as the scan reads them; the panels also
  // assemble the resident matrix the kernel-only timing runs over.
  PackedGenotypeMatrix x(n, m);
  PackedGenotypeMatrix panel(0, 0);
  int64_t panel_bytes = 0;
  const auto read_begin = Clock::now();
  for (int64_t p = 0; p < reader->num_panels(); ++p) {
    DASH_RETURN_IF_ERROR(reader->ReadPanel(p, &panel));
    panel_bytes += panel.words_per_column() * panel.cols() * 8;
  }
  const double read_s = Seconds(read_begin, Clock::now());
  for (int64_t p = 0; p < reader->num_panels(); ++p) {
    DASH_RETURN_IF_ERROR(reader->ReadPanel(p, &panel));
    const int64_t word0 =
        reader->panel_begin_row(p) / PackedGenotypeMatrix::kRowsPerWord;
    for (int64_t j = 0; j < m; ++j) {
      std::copy(panel.column_words(j),
                panel.column_words(j) + panel.words_per_column(),
                x.mutable_column_words(j) + word0);
    }
  }

  PartyData party;
  party.y = reader->phenotype();
  party.c = reader->covariates();
  Matrix q_p;
  const double phase1_s = TimeMedian(reps, [&] {
    auto r = PartyLocalRFactor(party);
    if (!r.ok()) { status = r.status(); return; }
    auto r_inverse = InvertUpperTriangular(r.value());
    if (!r_inverse.ok()) { status = r_inverse.status(); return; }
    q_p = PartyLocalQ(party, r_inverse.value());
  });
  DASH_RETURN_IF_ERROR(status);

  // Kernel alone (in-memory source: no I/O), then the file-backed
  // stream; both with the scan's default prefetch, so the difference is
  // file I/O the prefetcher failed to hide.
  InMemoryPanelSource resident(x, party.y, party.c, reader->tag());
  Vector flat;
  const double kernel_s = TimeMedian(reps, [&] {
    auto streamed = ComputeLocalStatsStreamed(&resident, party.y, q_p);
    if (!streamed.ok()) { status = streamed.status(); return; }
    flat = std::move(streamed.value().flat);
  });
  DASH_RETURN_IF_ERROR(status);
  const double stream_s = TimeMedian(reps, [&] {
    auto streamed = ComputeLocalStatsStreamed(reader.get(), party.y, q_p);
    if (!streamed.ok()) status = streamed.status();
  });
  DASH_RETURN_IF_ERROR(status);

  // data.input_s is the data layer's input cost on every workload:
  // the panel reads here, the cohort generation on the job path.
  out->Num("data.input_s", read_s)
      .Num("data.open_s", open_s)
      .Num("data.read_s", read_s)
      .Num("data.read_gbps", static_cast<double>(panel_bytes) / read_s / 1e9)
      .Int("data.panels", reader->num_panels())
      .Num("core.kernel_s", kernel_s)
      .Num("core.kernel_gentries_per_s",
           static_cast<double>(n) * static_cast<double>(m) / kernel_s / 1e9)
      .Num("core.stream_s", stream_s)
      .Num("core.io_stall_s", stream_s - kernel_s)
      .Num("core.phase1_local_s", phase1_s);
  DASH_RETURN_IF_ERROR(
      TimeFinalize(flat, m, k, n * num_parties, num_parties, reps, out));
  return TimeMpc(flat, num_parties, reps, out);
}

Status LayersForJob(const JobShape& shape, int num_parties, int reps,
                    JsonObject* out) {
  ScanWorkload workload;
  Status status = Status::Ok();
  const double gen_s = TimeMedian(reps, [&] {
    auto made = JobWorkload(shape, num_parties);
    if (!made.ok()) { status = made.status(); return; }
    workload = std::move(made).value();
  });
  DASH_RETURN_IF_ERROR(status);
  const PartyData& party = workload.parties[0];
  Matrix q_p;
  const double phase1_s = TimeMedian(reps, [&] {
    auto r = PartyLocalRFactor(party);
    if (!r.ok()) { status = r.status(); return; }
    auto r_inverse = InvertUpperTriangular(r.value());
    if (!r_inverse.ok()) { status = r_inverse.status(); return; }
    q_p = PartyLocalQ(party, r_inverse.value());
  });
  DASH_RETURN_IF_ERROR(status);
  Vector flat;
  const double kernel_s =
      TimeMedian(reps, [&] { flat = PartyLocalStatsFlat(party, q_p); });
  const int64_t n = party.num_samples();
  const int64_t m = party.x.cols();
  // The job path is in memory: no study file is opened, read or
  // streamed, so the data.* file metrics do not apply.
  out->Num("data.input_s", gen_s)
      .Num("data.cohort_gen_s", gen_s)
      .Num("core.kernel_s", kernel_s)
      .Num("core.kernel_gentries_per_s",
           static_cast<double>(n) * static_cast<double>(m) / kernel_s / 1e9)
      .Num("core.phase1_local_s", phase1_s);
  DASH_RETURN_IF_ERROR(TimeFinalize(flat, m, party.c.cols(),
                                    n * num_parties, num_parties, reps, out));
  return TimeMpc(flat, num_parties, reps, out);
}

int CmdLayers(const Args& args) {
  const int num_parties = static_cast<int>(args.Int("parties", 3));
  const int reps = static_cast<int>(args.Int("reps", 3));
  JsonObject out;
  Status status = Status::Ok();
  if (args.Has("job")) {
    JobShape shape;
    if (!ParseJobShape(args.Str("job"), &shape)) {
      std::fprintf(stderr, "layers: --job wants \"M N K SEED\"\n");
      return 2;
    }
    status = LayersForJob(shape, num_parties, reps, &out);
  } else if (args.Has("study")) {
    status = LayersForStudy(args.Str("study"), num_parties, reps, &out);
  } else {
    std::fprintf(stderr, "layers: need --study or --job\n");
    return 2;
  }
  if (!status.ok()) return Fail("layers", status);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dashbench_tool env|gen|reference|check|party|layers "
                 "[--flag value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Args args;
  if (!args.Parse(argc, argv, 2)) return 2;
  if (cmd == "env") return CmdEnv();
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "reference") return CmdReference(args);
  if (cmd == "check") return CmdCheck(args);
  if (cmd == "party") return CmdParty(args);
  if (cmd == "layers") return CmdLayers(args);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
