//===- servebench/harness/Bench.h - Served-request benchmark ----*- C++ -*-===//
///
/// \file
/// Shared vocabulary of the served-request benchmark: the seeded workload
/// description (programs, distinct requests with oracle values, per-client
/// request streams), the sizing the harness is given, the closed-loop load
/// generator over a live NetServer + RtcgService rig, and the traced replay.
///
/// One served request is the unit of measurement. A workload is a set of
/// program templates (one NetServer each, all sharing one RtcgService) and
/// one request stream per client thread; every request's expected value
/// is computed up front by the reference interpreter on the unspecialized
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef SERVEBENCH_BENCH_H
#define SERVEBENCH_BENCH_H

#include "pgg/DiskStore.h"
#include "pgg/NetClient.h"
#include "pgg/NetServer.h"
#include "pgg/RtcgService.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace servebench {

namespace pgg = pecomp::pgg;
using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Fixed sizing of one workload. Every count is a constant from the
/// benchmark's configuration (servebench/config.json, passed as flags;
/// the harness refuses to run without each of them), never derived from
/// the host.
struct Sizing {
  size_t Workers = 0;        ///< RtcgService worker threads
  size_t ClientThreads = 0;  ///< load-generator threads (closed loop)
  size_t ConnsPerThread = 0; ///< connections per thread to each server
  size_t CacheBytes = 0;     ///< memory-tier budget (0 = unlimited)
  size_t SetupReps = 0;      ///< set-ups per run; setup_s is their median
  size_t TraceRequests = 0;  ///< requests per traced-run phase
  size_t StreamLen = 0;      ///< units per client thread's stream
  /// peak_rss_mb is read over the measured run's first this many
  /// completed requests, so runs are compared after the same work.
  size_t RssAtRequests = 0;
};

/// One program template: the NetServer serving it binds ProgramText,
/// Entry and the default Division.
struct ProgramSpec {
  std::string Name;
  pgg::RtcgRequest Template;
};

/// One distinct request (a program plus its arguments) and its oracle.
struct RequestSpec {
  uint32_t Program = 0;
  pgg::net::NetRequest Net;
  std::string Expected; ///< eval::Interp rendering of the full call
};

/// One step of a client thread's closed loop: a request, either sent on
/// one connection or (Dup) on two connections at once.
struct Unit {
  uint32_t Request = 0; ///< index into Workload::Pool
  bool Dup = false;
};

struct Workload {
  std::string Name;
  bool Store = false;  ///< attach a DiskStore in a scratch directory
  bool Respec = false; ///< online re-specialization on
  /// The streams draw from a small, fully pre-warmed pool, so a timed
  /// pass may wrap around them instead of running out before its end.
  bool Cyclic = false;
  std::vector<ProgramSpec> Programs;
  std::vector<RequestSpec> Pool;
  /// Per client thread: its request stream.
  std::vector<std::vector<Unit>> Streams;
  /// Per client thread: requests served during set-up (cache pre-warm,
  /// cogen, re-specialization triggers), never measured.
  std::vector<std::vector<Unit>> Warm;
};

/// Builds the named workload from \p Seed (oracle values included), with
/// Sz.StreamLen units per client thread. Returns false with a message for
/// an unknown name or an oracle failure.
bool buildWorkload(const std::string &Name, uint64_t Seed, const Sizing &Sz,
                   Workload &Out, std::string &Err);

/// Latency and response flags observed for one request. Kept small: the
/// measured run records one per request, and that memory shows in the
/// process's peak RSS.
struct Observation {
  uint32_t Request = UINT32_MAX; ///< pool index; UINT32_MAX = not attempted
  float LatencyMs = 0;
  float DoneS = 0; ///< completion time, seconds since the pass began
  bool Ok = false; ///< reply arrived, no error, value equals the oracle
  bool CacheHit = false, Respecialized = false, GuardMiss = false;
};

/// One pass of a closed loop over the rig: observations are indexed by
/// the unit's position so passes over the same units can be compared
/// request by request (slot 2*i for the unit, 2*i+1 for a Dup's twin).
/// Each thread's vector grows as its units are served.
struct PassResult {
  std::vector<std::vector<Observation>> PerThread; ///< by stream slot
  size_t Attempted = 0, Failed = 0, Completed = 0;
  double Seconds = 0;
  double CpuMs = 0; ///< process user+sys over the pass
  /// Process user+sys and resident set size at the end of each slice of
  /// the pass (drive() with a slice length), the first at the pass's start.
  std::vector<double> SliceCpuMs, SliceRssMb;
  /// Resident set size when the pass had completed
  /// DriveOptions::RssAtRequests requests, and the time that happened;
  /// RssAtS < 0 when the pass ended first.
  double RssAtMb = 0, RssAtS = -1;
  std::string FirstFailure;
};

enum class Transport { Net, InProcess };

/// Snapshot of the rig's server and service counters, taken after its
/// event loops stopped.
struct RigStats {
  pgg::net::NetServerStats Net;
  pgg::RespecStats Respec;
};

/// One live serving set-up: RtcgService (plus a DiskStore when the
/// workload has one), one NetServer per program with its event-loop
/// thread, and every client thread's connections.
class Rig {
public:
  Rig() = default;
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;
  ~Rig() { stop(); }

  /// Closes the connections, stops the event loops and returns the
  /// counters; idempotent.
  RigStats stop();

  std::string StoreDir;
  std::shared_ptr<pgg::DiskStore> Store;
  std::unique_ptr<pgg::RtcgService> Service;
  std::vector<std::unique_ptr<pgg::net::NetServer>> Servers;
  std::vector<std::thread> Loops;
  /// Per client thread: ConnsPerThread connections to each program's
  /// server, program-major.
  std::vector<std::vector<pgg::net::NetClient>> Conns;
};

/// Builds a rig (service, optional store, one NetServer per program,
/// client connections), serves the warm streams and quiesces background
/// re-specialization. \p SetupSeconds receives the wall time of all of it.
std::unique_ptr<Rig> setUp(const Workload &W, const Sizing &Sz,
                           const std::string &ScratchDir,
                           double &SetupSeconds, std::string &Err);

/// How far a closed-loop pass goes and what it samples on the way.
struct DriveOptions {
  size_t MaxUnits = SIZE_MAX; ///< units per stream
  Clock::time_point Deadline = Clock::time_point::max();
  /// Wrap around each stream until the deadline (needs a finite one).
  bool Cycle = false;
  double SliceS = 0; ///< > 0: sample CPU time and RSS every SliceS seconds
  size_t RssAtRequests = 0; ///< > 0: sample RSS after this many requests
};

/// Drives the streams in \p Streams (one per client thread) in a closed
/// loop, as far as \p Opt says.
PassResult drive(Rig &R, const Workload &W,
                 const std::vector<std::vector<Unit>> &Streams, Transport T,
                 const DriveOptions &Opt);

/// One rig and the way requests reach it.
struct Lane {
  Rig *R;
  Transport T;
};

/// Serves the first \p MaxUnits units of every stream one request at a
/// time, the threads' units interleaved round-robin. Each unit is served
/// on every lane in turn, so lanes compared request by request see the
/// same moment of the host.
std::vector<PassResult> driveAlone(const std::vector<Lane> &Lanes,
                                   const Workload &W, size_t MaxUnits);

/// Per-layer numbers from the traced replay, by metric name.
struct LayerReport {
  std::map<std::string, double> Metrics;
  std::map<std::string, double> SpanSelfMs; ///< summed self time by span
  size_t Requests = 0, Failed = 0;
  double TracedP50Ms = 0;   ///< request spans, every layer traced
  double UntracedP50Ms = 0; ///< the same replay with only request spans
  size_t Spans = 0;
  std::string FirstFailure;
};

/// Replays the first \p MaxUnits units of every stream one request at a
/// time through the layers' public functions, with a span around each
/// call, interleaved request by request with an identical replay that
/// records only the request span (the untraced baseline). \p Seeded is a
/// set-up rig whose cache provides the pre-warmed entries and installed
/// variants.
LayerReport tracedReplay(const Workload &W, const Sizing &Sz, Rig &Seeded,
                         const std::string &ScratchDir, size_t MaxUnits);

/// The process's resident set size (VmRSS) now, in MiB.
double rssMb();

/// Percentile (nearest rank on a sorted copy); 0 for an empty sample.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

} // namespace servebench

#endif // SERVEBENCH_BENCH_H
