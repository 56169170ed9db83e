//===- servebench/harness/Main.cpp - Served-request benchmark harness -----===//
///
/// \file
/// One process: a NetServer per program over one RtcgService, and a
/// closed-loop NetClient load generator, on loopback PEC1.
///
///   servebench --workload NAME --seed N --seconds S --trace 0|1
///              --scratch DIR <every sizing flag>
///
/// --trace 0 is the measured run: set up SetupReps times (setup_s is the
/// median), then drive the last rig for S seconds with tracing off and
/// report the end-to-end metrics. --trace 1 is the traced run over the
/// first TraceRequests requests of the same stream, each phase on a
/// freshly set-up rig:
///
///   A  PEC1 at the workload's concurrency (response flags, server
///      counters)
///   B  in-process (RtcgService::submit) at the same concurrency
///   C  PEC1, one request at a time
///   D  in-process, one request at a time
///   E  the traced replay through the layers' public functions
///
/// C and D run unit by unit on two live rigs, so each request's pair sees
/// the same moment of the host. Per request, net.wire_ms is C minus D and
/// service.queue_wait_ms is B minus D (medians). E is interleaved request
/// by request with an identical replay that records only request spans;
/// trace.overhead_ratio is the traced median over that one.
///
/// The last stdout line is one JSON document (schema
/// pecomp-servebench/v1) with every metric by name, value and unit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "vm/Jit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>

using namespace pecomp;

namespace servebench {
namespace {

struct Args {
  std::string Workload, Scratch;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  Sizing Sz;
};

/// Every flag is required, so the sizing comes from the benchmark's
/// configuration alone.
bool parseArgs(int Argc, char **Argv, Args &A) {
  auto Size = [](size_t &Dst) {
    return [&Dst](const std::string &V) { Dst = std::stoull(V); };
  };
  std::map<std::string, std::function<void(const std::string &)>> Flags = {
      {"--workload", [&](const std::string &V) { A.Workload = V; }},
      {"--seed", [&](const std::string &V) { A.Seed = std::stoull(V); }},
      {"--seconds", [&](const std::string &V) { A.Seconds = std::stod(V); }},
      {"--trace", [&](const std::string &V) { A.Trace = V != "0"; }},
      {"--scratch", [&](const std::string &V) { A.Scratch = V; }},
      {"--workers", Size(A.Sz.Workers)},
      {"--client-threads", Size(A.Sz.ClientThreads)},
      {"--conns-per-thread", Size(A.Sz.ConnsPerThread)},
      {"--cache-bytes", Size(A.Sz.CacheBytes)},
      {"--setup-reps", Size(A.Sz.SetupReps)},
      {"--trace-requests", Size(A.Sz.TraceRequests)},
      {"--stream-len", Size(A.Sz.StreamLen)},
      {"--rss-at-requests", Size(A.Sz.RssAtRequests)},
  };
  std::set<std::string> Seen;
  for (int I = 1; I + 1 < Argc; I += 2) {
    auto F = Flags.find(Argv[I]);
    if (F == Flags.end() || !Seen.insert(F->first).second)
      return false;
    F->second(Argv[I + 1]);
  }
  const Sizing &Z = A.Sz;
  return Argc % 2 == 1 && Seen.size() == Flags.size() && A.Seconds > 0 &&
         Z.Workers && Z.ClientThreads && Z.ConnsPerThread && Z.SetupReps &&
         Z.TraceRequests && Z.StreamLen && Z.RssAtRequests;
}

/// Minimal JSON object writer (insertion-ordered, numbers at full
/// precision).
class Json {
public:
  Json &num(const std::string &K, double V) {
    char B[64];
    snprintf(B, sizeof B, "%.17g", std::isfinite(V) ? V : 0.0);
    return raw(K, B);
  }
  Json &str(const std::string &K, const std::string &V) {
    return raw(K, quote(V));
  }
  Json &boolean(const std::string &K, bool V) {
    return raw(K, V ? "true" : "false");
  }
  Json &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + quote(K) + ": " + V;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

  static std::string quote(const std::string &S) {
    std::string O = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        O += {'\\', C};
      else if (static_cast<unsigned char>(C) < 0x20)
        O += ' ';
      else
        O += C;
    }
    return O + "\"";
  }

private:
  std::string Body;
};

/// Metric units by name: the suffix convention of the metric list.
std::string unitOf(const std::string &Name) {
  auto Ends = [&](const char *S) {
    size_t L = strlen(S);
    return Name.size() >= L && Name.compare(Name.size() - L, L, S) == 0;
  };
  if (Ends("_us"))
    return "us";
  if (Ends("_ms_per_req"))
    return "ms";
  if (Ends("_ms") || Ends(".ms"))
    return "ms";
  if (Ends("_s"))
    return "s";
  if (Ends("_rps"))
    return "1/s";
  if (Ends("_mb"))
    return "MB";
  if (Ends("_per_1k"))
    return "per_1k";
  if (Ends("_per_req"))
    return "per_req";
  if (Ends("ratio") || Ends("_rate"))
    return "ratio";
  if (Ends(".bytes"))
    return "bytes";
  return "count";
}

std::vector<double> latencies(const PassResult &P) {
  std::vector<double> L;
  for (const auto &Slots : P.PerThread)
    for (const Observation &O : Slots)
      if (O.Request != UINT32_MAX && O.Ok)
        L.push_back(O.LatencyMs);
  return L;
}

/// Per-request differences of two passes over the same units.
std::vector<double> minus(const PassResult &A, const PassResult &B) {
  std::vector<double> D;
  for (size_t T = 0; T != A.PerThread.size(); ++T)
    for (size_t I = 0;
         I != std::min(A.PerThread[T].size(), B.PerThread[T].size()); ++I) {
      const Observation &X = A.PerThread[T][I], &Y = B.PerThread[T][I];
      if (X.Request != UINT32_MAX && Y.Request != UINT32_MAX && X.Ok && Y.Ok)
        D.push_back(X.LatencyMs - Y.LatencyMs);
    }
  return D;
}

struct Outcome {
  std::map<std::string, double> Metrics;
  size_t Attempted = 0, Failed = 0, Samples = 0;
  std::string FirstFailure;
  Json Extra;
};

void account(Outcome &O, const PassResult &P) {
  O.Attempted += P.Attempted;
  O.Failed += P.Failed;
  if (O.FirstFailure.empty())
    O.FirstFailure = P.FirstFailure;
}

/// The measured window is cut into slices of this length; each
/// end-to-end metric is the median of its per-slice values, so a burst of
/// interference from outside the process spoils at most a slice or two.
constexpr double SliceSeconds = 2;

bool measured(const Args &A, const Workload &W, Outcome &O, std::string &Err) {
  std::vector<double> Setups;
  std::unique_ptr<Rig> R;
  for (size_t I = 0; I != A.Sz.SetupReps; ++I) {
    R.reset(); // a rig stops and cleans up when destroyed
    double S = 0;
    R = setUp(W, A.Sz, A.Scratch, S, Err);
    if (!R)
      return false;
    Setups.push_back(S);
  }
  size_t Slices = std::max<size_t>(1, static_cast<size_t>(
                                          std::lround(A.Seconds / SliceSeconds)));
  double Slice = A.Seconds / static_cast<double>(Slices);
  auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(A.Seconds));
  DriveOptions Opt;
  Opt.Deadline = Deadline;
  Opt.Cycle = W.Cyclic;
  Opt.SliceS = Slice;
  Opt.RssAtRequests = A.Sz.RssAtRequests;
  PassResult P = drive(*R, W, W.Streams, Transport::Net, Opt);
  R.reset();
  account(O, P);

  // Per-slice figures over the slices the pass covered completely (a
  // stream that runs out early ends the window inside a slice).
  Slices = std::clamp<size_t>(static_cast<size_t>(P.Seconds / Slice + 1e-6),
                              1, Slices);
  std::vector<std::vector<double>> Lat(Slices);
  for (const auto &Slots : P.PerThread)
    for (const Observation &Ob : Slots)
      if (Ob.Request != UINT32_MAX && Ob.Ok) {
        size_t K = static_cast<size_t>(Ob.DoneS / Slice);
        if (K < Slices)
          Lat[K].push_back(Ob.LatencyMs);
      }
  std::vector<double> Rps, P50, P99, Cpu;
  for (size_t K = 0; K + 1 < P.SliceCpuMs.size() && K < Slices; ++K) {
    if (Lat[K].empty())
      continue;
    double N = static_cast<double>(Lat[K].size());
    Rps.push_back(N / Slice);
    P50.push_back(percentile(Lat[K], 0.50));
    P99.push_back(percentile(Lat[K], 0.99));
    Cpu.push_back((P.SliceCpuMs[K + 1] - P.SliceCpuMs[K]) / N);
  }
  std::vector<double> L = latencies(P);
  double Done = P.Completed ? static_cast<double>(P.Completed) : 1;
  O.Samples = L.size();
  O.Metrics["throughput_rps"] = median(Rps);
  O.Metrics["latency_p50_ms"] = median(P50);
  O.Metrics["latency_p99_ms"] = median(P99);
  O.Metrics["cpu_ms_per_req"] = median(Cpu);
  // The largest RSS over the first RssAtRequests completed requests: the
  // samples at the slice boundaries before that point and the one taken
  // at it. A fixed amount of work, not a fixed time, because miss_churn's
  // footprint grows with every generation; read at the window's end, a
  // faster change would show as a memory regression. VmRSS, not VmHWM
  // (which also catches transient set-up peaks) or getrusage's ru_maxrss
  // (which survives execve and would report the launcher).
  bool RssReached = P.RssAtS >= 0;
  double Rss = P.RssAtMb;
  for (size_t K = 0; K != P.SliceRssMb.size(); ++K)
    if (!RssReached || static_cast<double>(K) * Slice < P.RssAtS)
      Rss = std::max(Rss, P.SliceRssMb[K]);
  O.Metrics["peak_rss_mb"] = Rss;
  O.Metrics["error_rate"] =
      P.Attempted ? static_cast<double>(P.Failed) / P.Attempted : 1;
  O.Metrics["setup_s"] = median(Setups);
  Json Whole;
  Whole.num("throughput_rps", static_cast<double>(P.Completed) / P.Seconds)
      .num("latency_p50_ms", percentile(L, 0.50))
      .num("latency_p99_ms", percentile(L, 0.99))
      .num("cpu_ms_per_req", P.CpuMs / Done);
  auto List = [](const std::vector<double> &V) {
    std::string S;
    for (double X : V) {
      char B[32];
      snprintf(B, sizeof B, "%s%.6g", S.empty() ? "" : ", ", X);
      S += B;
    }
    return "[" + S + "]";
  };
  Json PerSlice;
  PerSlice.raw("throughput_rps", List(Rps))
      .raw("latency_p50_ms", List(P50))
      .raw("latency_p99_ms", List(P99))
      .raw("cpu_ms_per_req", List(Cpu))
      .raw("rss_mb", List(P.SliceRssMb));
  O.Extra.num("window_s", P.Seconds)
      .num("slice_s", Slice)
      .raw("per_slice", PerSlice.text())
      .raw("whole_window", Whole.text())
      .raw("setup_runs_s", List(Setups))
      .boolean("exhausted_streams", P.Seconds < A.Seconds * 0.99)
      .boolean("rss_at_requests_reached", RssReached)
      .num("rss_at_s", P.RssAtS);
  return true;
}

bool traced(const Args &A, const Workload &W, Outcome &O, std::string &Err) {
  size_t PerThread =
      (A.Sz.TraceRequests + A.Sz.ClientThreads - 1) / A.Sz.ClientThreads;
  std::vector<std::unique_ptr<Rig>> Rigs;
  auto Fresh = [&]() -> Rig * {
    double Setup = 0;
    std::unique_ptr<Rig> R = setUp(W, A.Sz, A.Scratch, Setup, Err);
    Rigs.push_back(std::move(R));
    return Rigs.back().get();
  };
  auto Concurrent = [&](Transport T, PassResult &P, RigStats &S) {
    Rig *R = Fresh();
    if (!R)
      return false;
    DriveOptions Opt;
    Opt.MaxUnits = PerThread;
    P = drive(*R, W, W.Streams, T, Opt);
    S = R->stop();
    account(O, P);
    return true;
  };
  PassResult Net, InProc;
  RigStats NetS, InProcS; // only the PEC1 pass's server counters are used
  if (!Concurrent(Transport::Net, Net, NetS) ||
      !Concurrent(Transport::InProcess, InProc, InProcS))
    return false;
  // Alone over PEC1 and alone in-process, unit by unit on two live rigs.
  Rig *NetRig = Fresh(), *InProcRig = NetRig ? Fresh() : nullptr;
  if (!InProcRig)
    return false;
  std::vector<PassResult> Alone2 = driveAlone(
      {{NetRig, Transport::Net}, {InProcRig, Transport::InProcess}}, W,
      PerThread);
  const PassResult &NetAlone = Alone2[0], &Alone = Alone2[1];
  account(O, NetAlone);
  account(O, Alone);
  Rigs.clear();

  Rig *Seeded = Fresh();
  if (!Seeded)
    return false;
  LayerReport L = tracedReplay(W, A.Sz, *Seeded, A.Scratch, PerThread);
  Rigs.clear();
  O.Attempted += 2 * L.Requests; // the traced replay and its baseline
  O.Failed += L.Failed;
  if (O.FirstFailure.empty())
    O.FirstFailure = L.FirstFailure;

  O.Metrics = L.Metrics;
  std::map<std::string, double> &M = O.Metrics;
  double N = Net.Attempted ? static_cast<double>(Net.Attempted) : 1;
  M["net.wire_ms"] = median(minus(NetAlone, Alone));
  M["service.queue_wait_ms"] = median(minus(InProc, Alone));
  M["net.shed_per_1k"] = static_cast<double>(NetS.Net.Shed) * 1e3 / N;
  M["net.read_pauses_per_1k"] =
      static_cast<double>(NetS.Net.ReadPauses) * 1e3 / N;

  // Generations and duplicate work, from the service's own answers at the
  // workload's concurrency: a reply that was no cache hit generated.
  size_t Generations = 0, GuardHits = 0, GuardMisses = 0;
  std::map<uint32_t, size_t> GeneratedKeys;
  for (const auto &Slots : Net.PerThread)
    for (const Observation &Ob : Slots) {
      if (Ob.Request == UINT32_MAX || !Ob.Ok)
        continue;
      if (!Ob.CacheHit) {
        ++Generations;
        ++GeneratedKeys[Ob.Request];
      }
      GuardHits += Ob.Respecialized;
      GuardMisses += Ob.GuardMiss;
    }
  M["spec.generations_per_1k"] = static_cast<double>(Generations) * 1e3 / N;
  M["spec.dup_ratio"] =
      GeneratedKeys.empty()
          ? 0
          : static_cast<double>(Generations) / GeneratedKeys.size();
  M["respec.guard_hit_ratio"] =
      GuardHits + GuardMisses
          ? static_cast<double>(GuardHits) / (GuardHits + GuardMisses)
          : 0;
  M["respec.installed"] = static_cast<double>(NetS.Respec.Installed);
  M["respec.failed"] = static_cast<double>(NetS.Respec.Failed);
  std::vector<double> HitLat, MissLat;
  for (const auto &Slots : Alone.PerThread)
    for (const Observation &Ob : Slots)
      if (Ob.Request != UINT32_MAX && Ob.Ok) {
        if (Ob.Respecialized)
          HitLat.push_back(Ob.LatencyMs);
        else if (Ob.GuardMiss)
          MissLat.push_back(Ob.LatencyMs);
      }
  M["respec.hit_latency_ms"] = median(HitLat);
  M["respec.miss_latency_ms"] = median(MissLat);
  double AloneP50 = median(latencies(Alone));
  M["trace.overhead_ratio"] =
      L.UntracedP50Ms > 0 ? L.TracedP50Ms / L.UntracedP50Ms : 0;

  Json Spans;
  for (const auto &[Name, Ms] : L.SpanSelfMs)
    Spans.num(Name, Ms);
  O.Samples = L.Requests;
  O.Extra.raw("span_self_ms", Spans.text())
      .num("traced_p50_ms", L.TracedP50Ms)
      .num("untraced_replay_p50_ms", L.UntracedP50Ms)
      .num("alone_p50_ms", AloneP50)
      .num("spans", static_cast<double>(L.Spans));
  return true;
}

} // namespace
} // namespace servebench

using namespace servebench;

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    fprintf(stderr,
            "usage: servebench --workload NAME --seed N --seconds S "
            "--trace 0|1 --scratch DIR\n"
            "                  --workers N --client-threads N "
            "--conns-per-thread N\n"
            "                  --cache-bytes N --setup-reps N "
            "--trace-requests N\n"
            "                  --stream-len N --rss-at-requests N\n");
    return 2;
  }
  Workload W;
  std::string Err;
  if (!buildWorkload(A.Workload, A.Seed, A.Sz, W, Err)) {
    fprintf(stderr, "servebench: %s\n", Err.c_str());
    return 1;
  }
  Outcome O;
  if (!(A.Trace ? traced(A, W, O, Err) : measured(A, W, O, Err))) {
    fprintf(stderr, "servebench: %s\n", Err.c_str());
    return 1;
  }

  Json Metrics;
  for (const auto &[Name, V] : O.Metrics)
    Metrics.raw(Name, Json().num("value", V).str("unit", unitOf(Name)).text());
  Json Sizing;
  Sizing.num("workers", A.Sz.Workers)
      .num("client_threads", A.Sz.ClientThreads)
      .num("connections", static_cast<double>(A.Sz.ClientThreads *
                                              A.Sz.ConnsPerThread *
                                              W.Programs.size()))
      .num("cache_bytes", A.Sz.CacheBytes)
      .num("setup_reps", A.Sz.SetupReps)
      .num("trace_requests", A.Sz.TraceRequests)
      .num("stream_len", A.Sz.StreamLen)
      .num("rss_at_requests", A.Sz.RssAtRequests);
  Json Doc;
  Doc.str("schema", "pecomp-servebench/v1")
      .str("workload", W.Name)
      .num("seed", static_cast<double>(A.Seed))
      .num("trace", A.Trace)
      .num("seconds", A.Seconds)
      .raw("sizing", Sizing.text())
      .str("build_type", SERVEBENCH_BUILD_TYPE)
      .boolean("jit_available", vm::jitAvailable())
      .num("distinct_requests", static_cast<double>(W.Pool.size()))
      .boolean("correct", O.Failed == 0)
      .num("attempted", static_cast<double>(O.Attempted))
      .num("failed", static_cast<double>(O.Failed))
      .str("first_failure", O.FirstFailure)
      .num("samples", static_cast<double>(O.Samples))
      .raw("metrics", Metrics.text())
      .raw("details", O.Extra.text());
  printf("%s\n", Doc.text().c_str());
  return 0;
}
