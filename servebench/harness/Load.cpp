//===- servebench/harness/Load.cpp - Rig set-up and closed-loop load ------===//
///
/// \file
/// A rig is one RtcgService (plus a DiskStore when the workload has one),
/// one NetServer per program on a loopback ephemeral port, each with its
/// own event-loop thread, and the client connections of every load
/// thread. The load is a closed loop: PEC1 callers are synchronous, so a
/// client thread sends its next request only after the previous reply
/// arrived; a Dup unit sends one request on two of the thread's
/// connections at once and then waits for both replies.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sys/resource.h>
#include <thread>

using namespace pecomp;
using namespace pecomp::pgg;
using namespace pecomp::pgg::net;

namespace servebench {

RigStats Rig::stop() {
  RigStats S;
  Conns.clear();
  for (auto &Srv : Servers)
    Srv->requestStop();
  for (std::thread &L : Loops)
    L.join();
  Loops.clear();
  for (auto &Srv : Servers) {
    const NetServerStats &N = Srv->stats();
    S.Net.Accepted += N.Accepted;
    S.Net.Requests += N.Requests;
    S.Net.Responses += N.Responses;
    S.Net.Shed += N.Shed;
    S.Net.BadFrames += N.BadFrames;
    S.Net.BadVersions += N.BadVersions;
    S.Net.ReadPauses += N.ReadPauses;
  }
  Servers.clear();
  if (Service) {
    S.Respec = Service->respecStats();
    Service.reset();
  }
  Store.reset();
  if (!StoreDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(StoreDir, Ec);
    StoreDir.clear();
  }
  return S;
}

namespace {

double cpuMs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

RtcgRequest fullRequest(const Workload &W, const RequestSpec &Q) {
  RtcgRequest R = W.Programs[Q.Program].Template;
  if (!Q.Net.Division.empty())
    R.Division = Q.Net.Division;
  R.SpecArgs = Q.Net.SpecArgs;
  R.RunArgs = Q.Net.RunArgs;
  return R;
}

/// Fills \p O from a reply and checks it against the oracle.
void observe(Observation &O, const RequestSpec &Q, const Result<RtcgResponse> &R,
             std::string &Failure) {
  if (!R.ok()) {
    if (Failure.empty())
      Failure = "receive: " + R.error().render();
    return;
  }
  O.CacheHit = R->CacheHit;
  O.Respecialized = R->Respecialized;
  O.GuardMiss = R->GuardMiss;
  O.Ok = R->Ok && R->Value == Q.Expected;
  if (!O.Ok && Failure.empty())
    Failure = R->Ok ? "wrong value '" + R->Value + "', expected '" +
                          Q.Expected + "'"
                    : "request failed: " + R->ErrorText;
}

/// One client thread's view of the rig.
struct Client {
  Rig &R;
  const Workload &W;
  Transport T;
  size_t Thread;
  Clock::time_point Epoch;
  std::string Failure;

  Result<uint64_t> send(size_t Conn, const RequestSpec &Q,
                        std::future<RtcgResponse> &Fut) {
    if (T == Transport::InProcess) {
      Fut = R.Service->submit(fullRequest(W, Q));
      return uint64_t(0);
    }
    return conn(Q, Conn).send(0, Q.Net);
  }

  Result<RtcgResponse> receive(size_t Conn, const RequestSpec &Q, uint64_t Id,
                               std::future<RtcgResponse> &Fut) {
    if (T == Transport::InProcess)
      return Fut.get();
    return conn(Q, Conn).receive(Id);
  }

  /// The thread's \p Conn-th connection (modulo) to \p Q's server.
  NetClient &conn(const RequestSpec &Q, size_t Conn) {
    std::vector<NetClient> &Cs = R.Conns[Thread];
    size_t PerProgram = Cs.size() / W.Programs.size();
    return Cs[Q.Program * PerProgram + Conn % PerProgram];
  }

  /// Serves unit \p U (stream position \p Pos) into \p Slots[2*Pos..].
  void serve(const Unit &U, size_t Pos, std::vector<Observation> &Slots) {
    const RequestSpec &Q = W.Pool[U.Request];
    Slots.resize(2 * Pos + 2);
    size_t Lanes = U.Dup ? 2 : 1;
    std::future<RtcgResponse> Futs[2];
    Result<uint64_t> Ids[2] = {uint64_t(0), uint64_t(0)};
    Clock::time_point T0 = Clock::now();
    // A single request alternates over the thread's connections; a Dup
    // goes out on two of them before either reply is awaited.
    size_t Base = U.Dup ? 0 : Pos;
    for (size_t L = 0; L != Lanes; ++L)
      Ids[L] = send(Base + L, Q, Futs[L]);
    for (size_t L = 0; L != Lanes; ++L) {
      Observation &O = Slots[2 * Pos + L];
      O.Request = U.Request;
      Result<RtcgResponse> Resp =
          Ids[L].ok() ? receive(Base + L, Q, *Ids[L], Futs[L])
                      : Result<RtcgResponse>(Ids[L].error());
      Clock::time_point Done = Clock::now();
      O.LatencyMs = static_cast<float>(msBetween(T0, Done));
      O.DoneS = static_cast<float>(msBetween(Epoch, Done) / 1e3);
      observe(O, Q, Resp, Failure);
    }
  }
};

} // namespace

std::unique_ptr<Rig> setUp(const Workload &W, const Sizing &Sz,
                           const std::string &ScratchDir,
                           double &SetupSeconds, std::string &Err) {
  static std::atomic<unsigned> Serial{0};
  Clock::time_point T0 = Clock::now();
  auto R = std::make_unique<Rig>();
  RtcgOptions O;
  O.Threads = Sz.Workers;
  O.CacheBytes = Sz.CacheBytes;
  O.Respec.Enabled = W.Respec;
  if (W.Store) {
    R->StoreDir = ScratchDir + "/store-" + std::to_string(::getpid()) + "-" +
                  std::to_string(Serial++);
    Result<std::shared_ptr<DiskStore>> S = DiskStore::open(R->StoreDir);
    if (!S) {
      Err = "store: " + S.error().render();
      return nullptr;
    }
    R->Store = *S;
    O.Store = R->Store;
  }
  R->Service = std::make_unique<RtcgService>(O);
  for (const ProgramSpec &P : W.Programs) {
    Result<std::unique_ptr<NetServer>> Srv =
        NetServer::create(*R->Service, P.Template, NetServerOptions());
    if (!Srv) {
      Err = "server: " + Srv.error().render();
      return nullptr;
    }
    R->Servers.push_back(std::move(*Srv));
    NetServer *S = R->Servers.back().get();
    R->Loops.emplace_back([S] { S->run(); });
  }
  R->Conns.resize(Sz.ClientThreads);
  for (size_t T = 0; T != Sz.ClientThreads; ++T)
    for (const auto &Srv : R->Servers)
      for (size_t C = 0; C != Sz.ConnsPerThread; ++C) {
        Result<NetClient> Cl = NetClient::connect("127.0.0.1", Srv->port());
        if (!Cl) {
          Err = "connect: " + Cl.error().render();
          return nullptr;
        }
        R->Conns[T].push_back(std::move(*Cl));
      }
  PassResult Warm = drive(*R, W, W.Warm, Transport::Net, DriveOptions());
  if (Warm.Failed) {
    Err = "warm-up: " + Warm.FirstFailure;
    return nullptr;
  }
  R->Service->quiesceRespec();
  SetupSeconds = msBetween(T0, Clock::now()) / 1e3;
  return R;
}

namespace {

void tally(PassResult &P, const std::vector<Client> &Clients) {
  for (const auto &Slots : P.PerThread)
    for (const Observation &O : Slots) {
      if (O.Request == UINT32_MAX)
        continue;
      ++P.Attempted;
      ++(O.Ok ? P.Completed : P.Failed);
    }
  for (const Client &C : Clients)
    if (P.FirstFailure.empty())
      P.FirstFailure = C.Failure;
}

} // namespace

PassResult drive(Rig &R, const Workload &W,
                 const std::vector<std::vector<Unit>> &Streams, Transport T,
                 const DriveOptions &Opt) {
  PassResult Out;
  size_t Threads = Streams.size();
  Out.PerThread.resize(Threads);
  double Cpu0 = cpuMs();
  Clock::time_point T0 = Clock::now();
  std::vector<Client> Clients;
  for (size_t I = 0; I != Threads; ++I)
    Clients.push_back(Client{R, W, T, I, T0, {}});

  // Slice sampler: wakes at each slice boundary until the pass ends.
  std::mutex M;
  std::condition_variable Cv;
  bool Finished = false;
  std::thread Sampler;
  if (Opt.SliceS > 0) {
    Out.SliceCpuMs.push_back(Cpu0);
    Out.SliceRssMb.push_back(rssMb());
    Sampler = std::thread([&] {
      std::unique_lock<std::mutex> Lock(M);
      for (size_t K = 1;; ++K) {
        auto At = T0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Opt.SliceS * K));
        if (Cv.wait_until(Lock, At, [&] { return Finished; }))
          return;
        Out.SliceCpuMs.push_back(cpuMs());
        Out.SliceRssMb.push_back(rssMb());
      }
    });
  }
  // Requests completed so far; the thread that completes the
  // RssAtRequests-th samples the RSS.
  std::atomic<size_t> Done{0};
  std::vector<std::thread> Pool;
  for (size_t I = 0; I != Threads; ++I)
    Pool.emplace_back([&, I] {
      const std::vector<Unit> &S = Streams[I];
      size_t Len = Opt.Cycle ? Opt.MaxUnits : std::min(Opt.MaxUnits, S.size());
      for (size_t Pos = 0; Pos != Len && Clock::now() < Opt.Deadline; ++Pos) {
        const Unit &U = S[Pos % S.size()];
        Clients[I].serve(U, Pos, Out.PerThread[I]);
        size_t N = U.Dup ? 2 : 1, Before = Done.fetch_add(N);
        if (Opt.RssAtRequests && Before < Opt.RssAtRequests &&
            Before + N >= Opt.RssAtRequests) {
          Out.RssAtMb = rssMb();
          Out.RssAtS = msBetween(T0, Clock::now()) / 1e3;
        }
      }
    });
  for (std::thread &P : Pool)
    P.join();
  Out.Seconds = msBetween(T0, Clock::now()) / 1e3;
  Out.CpuMs = cpuMs() - Cpu0;
  if (Sampler.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Finished = true;
    }
    Cv.notify_all();
    Sampler.join();
  }
  tally(Out, Clients);
  return Out;
}

std::vector<PassResult> driveAlone(const std::vector<Lane> &Lanes,
                                   const Workload &W, size_t MaxUnits) {
  size_t Threads = W.Streams.size(), Longest = 0;
  std::vector<PassResult> Out(Lanes.size());
  std::vector<std::vector<Client>> Clients(Lanes.size());
  for (size_t L = 0; L != Lanes.size(); ++L) {
    Out[L].PerThread.resize(Threads);
    for (size_t I = 0; I != Threads; ++I)
      Clients[L].push_back(
          Client{*Lanes[L].R, W, Lanes[L].T, I, Clock::now(), {}});
  }
  for (const auto &S : W.Streams)
    Longest = std::max(Longest, std::min(MaxUnits, S.size()));
  for (size_t Pos = 0; Pos != Longest; ++Pos)
    for (size_t I = 0; I != Threads; ++I)
      if (Pos < std::min(MaxUnits, W.Streams[I].size()))
        for (size_t L = 0; L != Lanes.size(); ++L)
          Clients[L][I].serve(W.Streams[I][Pos], Pos, Out[L].PerThread[I]);
  for (size_t L = 0; L != Lanes.size(); ++L)
    tally(Out[L], Clients[L]);
  return Out;
}

double rssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // reported in kB
  return 0;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

} // namespace servebench
